package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"chimera/internal/perfmodel"
	"chimera/internal/serve"
)

// The goldens are compiled in, so a run reads the committed expectations
// wherever it is started from and can never regenerate them; only
// -update-golden writes the files.
//
//go:embed golden/plan.json golden/zipf.json golden/storm.json scenarios/fleet_storm.json
var committed embed.FS

// digest is the first 16 hex digits of a SHA-256: short enough to commit by
// the thousand, long enough that a wrong response cannot match by chance.
func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// planDigest digests a ranking the way the serve tier would send it.
func planDigest(req perfmodel.PlanRequest, preds []*perfmodel.Prediction) string {
	raw, err := json.Marshal(serve.NewPlanResponse(req.Model.Name, req.P, req.MiniBatch, preds))
	if err != nil {
		return ""
	}
	return digest(raw)
}

func readCommitted(path string, v any) error {
	raw, err := committed.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

type planGolden struct {
	Cases []planCase `json:"cases"`
}

func loadPlanCases() ([]planCase, error) {
	var g planGolden
	if err := readCommitted("golden/plan.json", &g); err != nil {
		return nil, err
	}
	if len(g.Cases) == 0 {
		return nil, fmt.Errorf("golden/plan.json holds no cases; run -update-golden")
	}
	for i := range g.Cases {
		var err error
		if g.Cases[i].resolved, err = g.Cases[i].Request.Resolve(); err != nil {
			return nil, fmt.Errorf("golden/plan.json case %s: %w", g.Cases[i].ID, err)
		}
	}
	return g.Cases, nil
}

// zipfGolden holds one response digest per tenant, in tenant order.
type zipfGolden struct {
	Digests []string `json:"digests"`
}

// stormGolden holds, per committed storm episode, the digest of every timed
// op's response in op order.
type stormGolden struct {
	Episodes []stormEpisodeGolden `json:"episodes"`
}

type stormEpisodeGolden struct {
	Seed    int64    `json:"seed"`
	Digests []string `json:"digests"`
}
