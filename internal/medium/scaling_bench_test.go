package medium

import (
	"fmt"
	"testing"
	"time"
)

// The medium scaling bench: per-transmission cost on a K×K grid mesh
// (4-neighborhood, degree ≤ 4 independent of N) under the neighbor index.
// The acceptance shape: ns/op stays flat as N grows at fixed degree. The
// workload lives in TxBench (benchkit.go) so cmd/aggbench commits baseline
// records of the identical measurement; the CI bench gate also watches
// these rows' B/op.
//
//	go test ./internal/medium -bench MediumTx -benchtime 100000x
func benchMediumTx(b *testing.B, k int) {
	b.Helper()
	tb := NewTxBench(k)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tb.Burst()
	}
	if wall := time.Since(start).Seconds(); wall > 0 {
		b.ReportMetric(tb.SimNow().Seconds()/wall, "simsec/sec")
	}
	b.ReportMetric(float64(tb.TxPerBurst()), "tx/op")
}

// BenchmarkMediumTx keeps the "/indexed" sub-bench suffix so its rows match
// the committed baseline's names.
func BenchmarkMediumTx(b *testing.B) {
	for _, k := range []int{5, 10, 20} { // N = 25, 100, 400
		b.Run(fmt.Sprintf("N%d/indexed", k*k), func(b *testing.B) {
			benchMediumTx(b, k)
		})
	}
}
