package router

import (
	"encoding/json"
	"net/http"
)

// InstanceState is one ring member's health as the router sees it,
// embedded in the router's /v1/healthz.
type InstanceState struct {
	URL string `json:"url"`
	// Healthy is the member's one health verdict: probes and forwarded
	// outcomes mark it down, and only probes admit it.
	Healthy bool `json:"healthy"`
	// Draining means the fleet supervisor is retiring this member: no
	// new assignments; the supervisor ejects it on a later reconcile
	// tick that reads Inflight at zero.
	Draining bool `json:"draining"`
	// Inflight counts requests currently proxied to this instance.
	Inflight int64 `json:"inflight"`
	// Requests/Failures are lifetime proxied-attempt totals, read from
	// the same registry /v1/metrics exposes.
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
}

// StampedeState summarizes the response cache, present in the snapshot
// only when the cache is enabled. Inserts counts new entries and
// entries replaced by another build's answer.
type StampedeState struct {
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Coalesced int64 `json:"coalesced"`
	Inserts   int64 `json:"inserts"`
}

// State is the router's health snapshot.
type State struct {
	// Status is "ok" (whole ring eligible), "degraded" (partially), or
	// "unhealthy" (no instance eligible; healthz also answers 503).
	Status string `json:"status"`
	// Epoch is the topology version; it bumps on every join/eject.
	Epoch     uint64          `json:"epoch"`
	Instances []InstanceState `json:"instances"`
	Failovers int64           `json:"failovers"`
	Shed      int64           `json:"shed"`
	// Stampede is the response-cache summary, nil when disabled.
	Stampede *StampedeState `json:"stampede,omitempty"`
}

// State reads the snapshot against one topology load; every number
// comes from the router's registry or the same atomics its routing
// decisions use, so healthz, metrics, and behavior can never disagree.
func (rt *Router) State() State {
	tp := rt.topo.Load()
	st := State{
		Epoch:     tp.epoch,
		Instances: make([]InstanceState, 0, len(tp.insts)),
		Failovers: rt.failovers.Value(),
		Shed:      rt.noHealthy.Value(),
	}
	if rt.stampede != nil {
		st.Stampede = &StampedeState{
			Entries:   rt.stampede.len(),
			Hits:      rt.stampedeHit.Value(),
			Coalesced: rt.stampedeCoalesced.Value(),
			Inserts:   rt.stampedeInsert.Value(),
		}
	}
	eligible := 0
	for _, in := range tp.insts {
		if in.eligible() {
			eligible++
		}
		st.Instances = append(st.Instances, InstanceState{
			URL:      in.url,
			Healthy:  in.healthy.Load(),
			Draining: in.draining.Load(),
			Inflight: in.inflight.Load(),
			Requests: in.reqs.Value(),
			Failures: in.fails.Value(),
		})
	}
	switch eligible {
	case len(tp.insts):
		st.Status = "ok"
	case 0:
		st.Status = "unhealthy"
	default:
		st.Status = "degraded"
	}
	return st
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.State()
	w.Header().Set("Content-Type", "application/json")
	if st.Status == "unhealthy" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(st)
}
