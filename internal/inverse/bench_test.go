package inverse

import (
	"context"
	"strconv"
	"testing"
)

// BenchmarkRecoverWide measures a complete recovery of a wide sibling
// query: the arrows force every parent, so the cost is one search node
// per group plus building and validating the one tree.
func BenchmarkRecoverWide(b *testing.B) {
	for _, boxes := range []int{4, 32} {
		d, _ := wideDiagram(b, boxes)
		b.Run("boxes="+strconv.Itoa(boxes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := RecoverContextStats(context.Background(), d, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
