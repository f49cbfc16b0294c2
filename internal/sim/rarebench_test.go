package sim

import (
	"context"
	"testing"

	"repro/internal/code"
	"repro/internal/noise"
)

// BenchmarkRareK2 times the k = 2 rare-event shot loop on the batch engine
// at p = 1e-4, the benchmark's rare-event rate: one 4096-shot block per op
// on one warmed runner, reported as shots/s. A warmed runner allocates
// nothing per block.
func BenchmarkRareK2(b *testing.B) {
	ctx := context.Background()
	for _, cs := range []*code.CSS{code.Steane(), code.Surface3(), code.Carbon()} {
		est := NewEstimator(buildProto(b, cs))
		b.Run(cs.Name, func(b *testing.B) {
			r, err := est.NewBlockRunner(Sampling{Method: MethodRare, MinFaults: 2}, noise.Uniform(1e-4))
			if err != nil {
				b.Fatal(err)
			}
			r.RunBlock(ctx, 1, 0, BlockShots) // warm-up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.RunBlock(ctx, 1, i+1, BlockShots)
			}
			b.ReportMetric(float64(b.N)*BlockShots/b.Elapsed().Seconds(), "shots/s")
		})
	}
}
