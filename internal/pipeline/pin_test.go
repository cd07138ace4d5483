package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"chimera/internal/data"
	"chimera/internal/optim"
	"chimera/internal/schedule"
)

// pinCase is one pinned training run: three iterations on a seeded stream.
// losses holds math.Float64bits of each iteration's loss; hashes holds the
// FNV-64a of every holder's weights, stage-major and holder-minor.
type pinCase struct {
	name   string
	cfg    Config
	losses [3]uint64
	hashes []uint64
}

// weightHash is the FNV-64a of a weight vector's little-endian float32 bits.
func weightHash(w []float32) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4*len(w))
	for i, v := range w {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	h.Write(buf)
	return h.Sum64()
}

func pinCases(t *testing.T) []pinCase {
	t.Helper()
	chim, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := schedule.PipeDream(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	momentum := func() optim.Optimizer { return &optim.Momentum{LR: 0.05, Mu: 0.9} }
	cfg := func(s *schedule.Schedule, w int) Config {
		return Config{Schedule: s, W: w, Spec: tinySpec, MicroBatch: 2, NewOptimizer: momentum}
	}
	eager, zero, int8 := cfg(chim, 2), cfg(chim, 2), cfg(chim, 2)
	eager.EagerSync = true
	zero.ZeROShard = true
	int8.Compression = CompressInt8
	return []pinCase{
		{name: "chimera-posthoc", cfg: cfg(chim, 2),
			losses: [3]uint64{0x400bee4e40135d9b, 0x400b262599fc9e97, 0x40044e71ddcd393e},
			hashes: []uint64{0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c}},
		{name: "chimera-eager", cfg: eager,
			losses: [3]uint64{0x400bee4e40135d9b, 0x400b262599fc9e97, 0x40044e71ddcd393e},
			hashes: []uint64{0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c}},
		{name: "chimera-zero", cfg: zero,
			losses: [3]uint64{0x400bee4e40135d9b, 0x400b262599fc9e97, 0x40044e71ddcd393e},
			hashes: []uint64{0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xa670ce0a09d8a1e9, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0xf79b26cbc5dffb01, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x4ce32815a1dab789, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c, 0x704ba93dd6d1927c}},
		{name: "chimera-int8", cfg: int8,
			losses: [3]uint64{0x400bee4e40135d9b, 0x400b2a5ee26758a2, 0x40044d9f939f6874},
			hashes: []uint64{0x826b9fc6630427fc, 0x826b9fc6630427fc, 0x826b9fc6630427fc, 0x826b9fc6630427fc, 0x1f359db7028cbbe0, 0x1f359db7028cbbe0, 0x1f359db7028cbbe0, 0x1f359db7028cbbe0, 0xb18c24cdab91df8d, 0xb18c24cdab91df8d, 0xb18c24cdab91df8d, 0xb18c24cdab91df8d, 0xad34d4fee0b32762, 0xad34d4fee0b32762, 0xad34d4fee0b32762, 0xad34d4fee0b32762}},
		{name: "pipedream-w1", cfg: cfg(pd, 1),
			losses: [3]uint64{0x400b3d70ee8a55d0, 0x4005746d78be42e8, 0x400609579218fdc0},
			hashes: []uint64{0x3fb3144e081515b2, 0x9835ee47e6373a51, 0xa69f166962848815, 0xe3aad572b4f1fe4}},
		{name: "pipedream-w2", cfg: cfg(pd, 2),
			losses: [3]uint64{0x400a577c0e6911e8, 0x4008f4150828ad69, 0x4005577bcac85ef3},
			hashes: []uint64{0xb40c4a31d7d4f9f2, 0xb40c4a31d7d4f9f2, 0xe84b2591b52a2aba, 0xe84b2591b52a2aba, 0x468f6e6b89b1f764, 0x468f6e6b89b1f764, 0x7c0ff14ac23e32e9, 0x7c0ff14ac23e32e9}},
	}
}

// TestTrainingBitsPinned pins the runtime's arithmetic: every loss and every
// holder's weights after three iterations, bit for bit, for the synchronous
// gradient-sync variants and for PipeDream's weight stashing.
func TestTrainingBitsPinned(t *testing.T) {
	for _, pc := range pinCases(t) {
		t.Run(pc.name, func(t *testing.T) {
			iterate, holderWeights, err := pinTrainer(pc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream := data.NewStream(tinySpec.Vocab, tinySpec.SeqLen, 61)
			var losses [3]uint64
			for i := range losses {
				loss, err := iterate(stream.Next(pc.cfg.MicroBatch * pc.cfg.Schedule.N * pc.cfg.W))
				if err != nil {
					t.Fatal(err)
				}
				losses[i] = math.Float64bits(loss)
			}
			var hashes []uint64
			for _, w := range holderWeights() {
				hashes = append(hashes, weightHash(w))
			}
			if losses != pc.losses || !slices.Equal(hashes, pc.hashes) {
				t.Errorf("pinned bits moved:\n losses: %s\n hashes: %s", hexList(losses[:]), hexList(hashes))
			}
		})
	}
}

func hexList(v []uint64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%#x", x)
	}
	return strings.Join(s, ", ")
}
