package nn

import (
	"fmt"
	"math"
	"testing"

	"nora/internal/rng"
)

// refAttendRow is attendCachedRow's naive reference over a contiguous
// position-major cache (K and V: position t's row at t·kvDim): scalar
// loops, every product rounded before its add, channels and positions
// ascending.
func refAttendRow(cfg Config, K, V, q []float32, pos int) []float32 {
	dh, kvd := cfg.HeadDim(), cfg.KVDim()
	group := cfg.NHeads / cfg.KVHeads()
	scale := float32(1 / math.Sqrt(float64(dh)))
	lo := 0
	if w := cfg.Window; w > 0 && pos-w+1 > 0 {
		lo = pos - w + 1
	}
	out := make([]float32, cfg.DModel)
	sc := make([]float32, pos-lo+1)
	for h := 0; h < cfg.NHeads; h++ {
		kvLo := (h / group) * dh
		mx := float32(math.Inf(-1))
		for t := lo; t <= pos; t++ {
			var s float32
			for c := 0; c < dh; c++ {
				s += float32(q[h*dh+c] * K[t*kvd+kvLo+c])
			}
			s *= scale
			sc[t-lo] = s
			if s > mx {
				mx = s
			}
		}
		var sum float64
		for i := range sc {
			e := float32(math.Exp(float64(sc[i] - mx)))
			sc[i] = e
			sum += float64(e)
		}
		inv := float32(1 / sum)
		for i, e := range sc {
			w := e * inv
			for c := 0; c < dh; c++ {
				out[h*dh+c] += float32(w * V[(lo+i)*kvd+kvLo+c])
			}
		}
	}
	return out
}

// filledState returns a decode state over a pool of pageTokens-sized pages
// holding positions [0, n) of every layer, K[l] and V[l] being layer l's
// contiguous position-major rows.
func filledState(layers, kvd, pageTokens, n int, K, V [][]float32) *decodeState {
	pool := newKVPagePool(layers, kvd, pageTokens, (n+pageTokens-1)/pageTokens)
	st := newDecodeState(nil, pool)
	if err := st.reserve(n); err != nil {
		panic(err)
	}
	for l := 0; l < layers; l++ {
		for t := 0; t < n; t++ {
			st.storeKV(l, t, K[l][t*kvd:(t+1)*kvd], V[l][t*kvd:(t+1)*kvd])
		}
	}
	return st
}

// attendCachedRow over the paged, channel-major K cache must equal the
// naive contiguous-cache reference bit for bit: with and without a sliding
// window, GQA groups 1 and 2, page sizes from one token to the whole
// context, at every position (so spans start, end and cross inside and
// across page boundaries), in both layers of the page.
func TestAttendCachedRowMatchesReference(t *testing.T) {
	const layers, maxSeq = 2, 40
	for _, window := range []int{0, 7} {
		for _, kvHeads := range []int{4, 2} {
			cfg := Config{DModel: 32, NHeads: 4, NKVHeads: kvHeads, Window: window, MaxSeq: maxSeq}
			m := &Model{Cfg: cfg}
			kvd := cfg.KVDim()
			r := rng.New(71)
			K, V := make([][]float32, layers), make([][]float32, layers)
			for l := range K {
				K[l], V[l] = make([]float32, maxSeq*kvd), make([]float32, maxSeq*kvd)
				r.FillNormal(K[l], 0, 1)
				r.FillNormal(V[l], 0, 1)
			}
			qs := make([]float32, maxSeq*cfg.DModel)
			r.FillNormal(qs, 0, 1)
			for _, pt := range []int{1, 3, DefaultKVPageTokens, maxSeq} {
				t.Run(fmt.Sprintf("window=%d/group=%d/page=%d", window, cfg.NHeads/kvHeads, pt), func(t *testing.T) {
					st := filledState(layers, kvd, pt, maxSeq, K, V)
					out := make([]float32, cfg.DModel)
					var scores []float32
					for l := 0; l < layers; l++ {
						for pos := 0; pos < maxSeq; pos++ {
							q := qs[pos*cfg.DModel : (pos+1)*cfg.DModel]
							attendCachedRow(out, m, st, l, q, pos, &scores)
							want := refAttendRow(cfg, K[l], V[l], q, pos)
							for c := range out {
								if math.Float32bits(out[c]) != math.Float32bits(want[c]) {
									t.Fatalf("layer %d pos %d: out[%d] = %v, reference %v", l, pos, c, out[c], want[c])
								}
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkAttendCachedRow times one query row's cached attention at the
// chat workload's model shape (d=256, 4 heads of 64, default 16-token
// pages) over spans of 16, 128 and 512 cached positions.
func BenchmarkAttendCachedRow(b *testing.B) {
	cfg := Config{DModel: 256, NHeads: 4, MaxSeq: 512}
	m := &Model{Cfg: cfg}
	kvd := cfg.KVDim()
	for _, span := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("span=%d", span), func(b *testing.B) {
			r := rng.New(73)
			K, V := [][]float32{make([]float32, span*kvd)}, [][]float32{make([]float32, span*kvd)}
			r.FillNormal(K[0], 0, 1)
			r.FillNormal(V[0], 0, 1)
			st := filledState(1, kvd, DefaultKVPageTokens, span, K, V)
			q, out := make([]float32, cfg.DModel), make([]float32, cfg.DModel)
			r.FillNormal(q, 0, 1)
			var scores []float32
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				attendCachedRow(out, m, st, 0, q, span-1, &scores)
			}
		})
	}
}
