// Package model provides the transformer model zoo of the paper's
// evaluation (Table 4: BERT-48 and a 64-layer GPT-2, plus the 32-layer
// GPT-2 of Fig. 19) together with the accounting the simulator and planner
// need: per-stage parameter counts, activation footprints, and FLOP counts.
//
// The counts use the standard transformer formulas: 12h²+13h parameters per
// layer, untied input/output embeddings, and the activation-per-token
// estimate 34h + 5·a·T floats per layer (attention scores and probabilities
// included), which reproduces the paper's memory behaviour — most
// importantly the "double imbalance" of §4.1: the first stage is
// weight-heavy (embedding) exactly where 1F1B schedules are
// activation-heavy.
package model

import "fmt"

// Config describes a repetitive-structure transformer language model.
type Config struct {
	Name   string
	Layers int
	Hidden int
	Heads  int
	Vocab  int
	// SeqLen is the maximum sequence length used in the evaluation.
	SeqLen int
}

// BERT48 is the paper's Bert-48: 48 layers, ≈670M parameters, sequence 128.
func BERT48() Config {
	return Config{Name: "Bert-48", Layers: 48, Hidden: 1024, Heads: 16, Vocab: 30522, SeqLen: 128}
}

// BERT48Seq512 is Bert-48 with sequence length 512 (Fig. 16's V100 runs).
func BERT48Seq512() Config {
	c := BERT48()
	c.SeqLen = 512
	return c
}

// GPT2 is the paper's 64-layer GPT-2 with ≈1.39B parameters, sequence 632.
func GPT2() Config {
	return Config{Name: "GPT-2", Layers: 64, Hidden: 1280, Heads: 16, Vocab: 50257, SeqLen: 632}
}

// GPT2Small32 is the 32-layer GPT-2 used in Figs. 9 and 19.
func GPT2Small32() Config {
	c := GPT2()
	c.Name = "GPT-2-32"
	c.Layers = 32
	return c
}

// LayerParams returns the parameter count of one transformer layer:
// attention (4h²+4h) + MLP (8h²+5h) + two layernorms (4h).
func (c Config) LayerParams() int64 {
	h := int64(c.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams returns token + positional embedding parameters.
func (c Config) EmbeddingParams() int64 {
	return int64(c.Vocab)*int64(c.Hidden) + int64(c.SeqLen)*int64(c.Hidden)
}

// HeadParams returns the output projection (untied LM head) parameters.
func (c Config) HeadParams() int64 {
	return int64(c.Vocab) * int64(c.Hidden)
}

// TotalParams returns the full model parameter count.
func (c Config) TotalParams() int64 {
	return int64(c.Layers)*c.LayerParams() + c.EmbeddingParams() + c.HeadParams()
}

// Stage describes one pipeline stage after partitioning.
type Stage struct {
	Index     int
	Layers    int
	Embedding bool // first stage carries the embedding tables
	Head      bool // last stage carries the LM head
	cfg       Config
}

// Stage returns stage i of the model split into d stages with an equal
// number of layers (the paper's setting: repetitive structures partition
// into balanced stages; the embedding joins stage 0 and the head the last
// stage, which is what creates the weight imbalance discussed in §4.1).
// Stage i of d is a function of (c, d, i) alone, so callers derive it where
// they read it. It checks nothing: d must pass CheckDepth and 0 ≤ i < d.
func (c Config) Stage(i, d int) Stage {
	return Stage{Index: i, Layers: c.Layers / d, Embedding: i == 0, Head: i == d-1, cfg: c}
}

// CheckDepth reports whether the model splits into d balanced stages.
func (c Config) CheckDepth(d int) error {
	if d < 1 {
		return fmt.Errorf("model: D must be ≥ 1, got %d", d)
	}
	if c.Layers%d != 0 {
		return fmt.Errorf("model: %d layers do not split evenly into %d stages", c.Layers, d)
	}
	return nil
}

// Params returns the stage's parameter count.
func (s Stage) Params() int64 {
	p := int64(s.Layers) * s.cfg.LayerParams()
	if s.Embedding {
		p += s.cfg.EmbeddingParams()
	}
	if s.Head {
		p += s.cfg.HeadParams()
	}
	return p
}

// BytesPerParamTraining is the training-state footprint per parameter:
// fp32 weight + fp32 gradient + fp32 momentum (SGD with momentum, as in the
// paper's PyTorch/GLOO setup).
const BytesPerParamTraining = 12

// actFloatsPerToken estimates stored forward activations per token per
// layer: 34h + 5·a·T floats (hidden streams plus attention score and
// probability matrices).
func (c Config) actFloatsPerToken() int64 {
	return 34*int64(c.Hidden) + 5*int64(c.Heads)*int64(c.SeqLen)
}

// ActivationBytes returns the stored-activation bytes of one micro-batch of
// size b passing through this stage (fp32).
func (s Stage) ActivationBytes(b int) int64 {
	tokens := int64(b) * int64(s.cfg.SeqLen)
	bytes := tokens * s.cfg.actFloatsPerToken() * 4 * int64(s.Layers)
	if s.Head {
		// Logits kept for the loss backward.
		bytes += tokens * int64(s.cfg.Vocab) * 4
	}
	if s.Embedding {
		bytes += tokens * int64(s.cfg.Hidden) * 4
	}
	return bytes
}

// BoundaryBytes returns the bytes of the activation tensor crossing a stage
// boundary for a micro-batch of size b (what p2p transfers carry, and what
// recomputation must keep resident per in-flight micro-batch).
func (c Config) BoundaryBytes(b int) int64 {
	return int64(b) * int64(c.SeqLen) * int64(c.Hidden) * 4
}

// FwdFLOPs returns the forward FLOPs of one micro-batch of size b through
// this stage: ≈ 2·params·tokens per layer plus attention's 2·2·T²·h·b and
// the head/embedding matmuls.
func (s Stage) FwdFLOPs(b int) int64 {
	tokens := int64(b) * int64(s.cfg.SeqLen)
	h := int64(s.cfg.Hidden)
	perLayer := 2*s.cfg.LayerParams()*tokens + 4*int64(s.cfg.SeqLen)*int64(s.cfg.SeqLen)*h*int64(b)
	fl := perLayer * int64(s.Layers)
	if s.Head {
		fl += 2 * tokens * int64(s.cfg.Vocab) * h
	}
	return fl
}
