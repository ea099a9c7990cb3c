package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"

	"repro/internal/router"
)

// Member is one desired fleet member: where it serves, and (spawn mode
// only) the extra arguments its process is started with.
type Member struct {
	// URL is the member's base URL ("http://127.0.0.1:8081"). Required.
	URL string `json:"url"`
	// Args are appended to the spawn command for this member.
	Args []string `json:"args,omitempty"`
}

// Source yields the desired membership. Implementations must be safe
// for repeated polling — the supervisor calls Desired every tick, so a
// spec file edit or a DNS record change is picked up within one
// Interval without any watch machinery (SIGHUP just makes it sooner).
// The supervisor normalizes every URL a Source yields (see normalize).
type Source interface {
	Desired(ctx context.Context) ([]Member, error)
}

// normalize rewrites each member URL to the router's canonical form, so
// the supervisor keys members exactly as the ring does. An invalid URL,
// or two that normalize alike, fails the whole set: the supervisor then
// keeps its last good set, as for any source error.
func normalize(ms []Member) ([]Member, error) {
	out := make([]Member, len(ms))
	seen := make(map[string]bool, len(ms))
	for i, m := range ms {
		u, err := router.NormalizeMember(m.URL)
		if err != nil {
			return nil, fmt.Errorf("fleet: desired member %d: %w", i, err)
		}
		if seen[u] {
			return nil, fmt.Errorf("fleet: duplicate desired member %q", u)
		}
		seen[u] = true
		m.URL = u
		out[i] = m
	}
	return out, nil
}

// Spec is the fleet spec file shape:
//
//	{
//	  "instances": [
//	    {"url": "http://127.0.0.1:8081"},
//	    {"url": "http://127.0.0.1:8082", "args": ["-cache-entries", "512"]}
//	  ]
//	}
type Spec struct {
	Instances []Member `json:"instances"`
}

// SpecSource reads desired membership from a JSON spec file on every
// call. No inotify, no caching: the file is the source of truth and
// rereading a few hundred bytes each tick is cheaper than being wrong.
type SpecSource struct {
	Path string
}

// Desired parses the spec file. An unreadable or malformed file is an
// error — the supervisor keeps its last good set, so a half-written
// save never reads as a fleet-wide scale-to-zero.
func (s *SpecSource) Desired(_ context.Context) ([]Member, error) {
	raw, err := os.ReadFile(s.Path)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading spec: %w", err)
	}
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("fleet: parsing spec %s: %w", s.Path, err)
	}
	return spec.Instances, nil
}

// SRVResolver is the lookup the SRVSource needs; *net.Resolver
// satisfies it, and tests substitute a fake to exercise discovery
// without DNS infrastructure.
type SRVResolver interface {
	LookupSRV(ctx context.Context, service, proto, name string) (string, []*net.SRV, error)
}

// SRVSource discovers desired membership from DNS SRV records — the
// "instances register themselves in service discovery" deployment,
// where the spec file would be a second source of truth to keep in
// sync.
type SRVSource struct {
	// Resolver performs the lookups (required; net.DefaultResolver for
	// real DNS).
	Resolver SRVResolver
	// Service/Proto/Name form the SRV query per RFC 2782:
	// _Service._Proto.Name (e.g. "queryvis", "tcp", "fleet.internal").
	Service string
	Proto   string
	Name    string
	// Scheme builds member URLs from SRV targets (default "http").
	Scheme string
}

// Desired resolves the SRV record set into member URLs, sorted for a
// stable order (DNS shuffles answers; the supervisor's diffing should
// not see a reordering as churn).
func (s *SRVSource) Desired(ctx context.Context) ([]Member, error) {
	scheme := s.Scheme
	if scheme == "" {
		scheme = "http"
	}
	_, addrs, err := s.Resolver.LookupSRV(ctx, s.Service, s.Proto, s.Name)
	if err != nil {
		return nil, fmt.Errorf("fleet: SRV lookup _%s._%s.%s: %w", s.Service, s.Proto, s.Name, err)
	}
	members := make([]Member, 0, len(addrs))
	seen := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		host := a.Target
		// SRV targets are absolute names; trim the root dot for URLs.
		if n := len(host); n > 0 && host[n-1] == '.' {
			host = host[:n-1]
		}
		if host == "" {
			continue
		}
		url := scheme + "://" + net.JoinHostPort(host, strconv.Itoa(int(a.Port)))
		if seen[url] {
			continue
		}
		seen[url] = true
		members = append(members, Member{URL: url})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].URL < members[j].URL })
	return members, nil
}
