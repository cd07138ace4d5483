package experiments

import (
	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// fig9Config is one panel of Figure 9.
type fig9Config struct {
	m       model.Config
	w, d, b int
	bhat    int
}

func figure9Configs() []fig9Config {
	return []fig9Config{
		{model.BERT48(), 2, 16, 8, 512},
		{model.BERT48(), 4, 8, 8, 512},
		{model.BERT48(), 4, 8, 16, 512},
		{model.GPT2Small32(), 1, 32, 1, 512},
		{model.GPT2Small32(), 2, 16, 1, 512},
		{model.GPT2Small32(), 2, 16, 2, 512},
	}
}

// Figure9 reproduces the memory consumption distribution across 32 workers
// for the paper's six configurations: per scheme, min and max per-worker
// memory and whether the configuration overflows a 16 GB P100 (OOM).
func Figure9() (*Report, error) {
	r := newReport("figure-9", "Memory consumption distribution among 32 GPU nodes (min/max per worker)")
	plat := pizDaint()
	for _, c := range figure9Configs() {
		n := c.bhat / (c.w * c.b)
		r.addf("%s (W=%d, D=%d, B=%d, B̂=%d):", c.m.Name, c.w, c.d, c.b, c.bhat)
		for _, name := range schedule.Schemes() {
			s, err := schedule.ByName(name, c.d, n)
			if err != nil {
				return nil, err
			}
			cfg := sim.Config{Model: c.m, Schedule: s, MicroBatch: c.b, W: c.w,
				Device: plat.dev, Network: plat.net}
			if err := c.m.CheckDepth(c.d); err != nil {
				return nil, err
			}
			mem := sim.PeakMemory(&cfg)
			lo, hi := mem[0], mem[0]
			peakWorker := 0
			for w, m := range mem {
				if m < lo {
					lo = m
				}
				if m > hi {
					hi = m
					peakWorker = w
				}
			}
			oom := ""
			if hi > plat.dev.MemBytes {
				oom = "  OOM"
			}
			r.addf("  %-14s min=%-10s max=%-10s (peak on worker %d)%s",
				name, gib(lo), gib(hi), peakWorker, oom)
			r.Metrics[c.m.Name+":"+name+":max"] = float64(hi)
			r.Metrics[c.m.Name+":"+name+":min"] = float64(lo)
		}
	}
	r.addf("expected shapes: GPipe OOM everywhere (act ∝ N); PipeDream highest weights (≤D versions);")
	r.addf("DAPPLE/2BW peak on worker 0 (double imbalance); Chimera balanced; GEMS lowest.")
	return r, nil
}
