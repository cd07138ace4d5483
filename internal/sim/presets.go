// Package sim is the cluster simulator standing in for the paper's
// testbeds. It executes a pipeline schedule under a calibrated cost model —
// per-stage compute times from FLOP counts and a micro-batch efficiency
// curve, α-β point-to-point links between stages, Rabenseifner-cost
// allreduce for gradient synchronization with the three overlap strategies
// of §3.2 — and tracks per-worker memory to decide when a configuration
// needs activation recomputation or simply does not fit (OOM), mirroring
// the R/OOM annotations of the paper's figures.
package sim

// Device models one accelerator.
type Device struct {
	Name string
	// PeakFLOPS is the sustained peak floating-point rate.
	PeakFLOPS float64
	// MemBytes is usable device memory.
	MemBytes int64
	// EffHalfB is the micro-batch size at which compute efficiency reaches
	// half of its asymptote: efficiency(B) = floor + (1−floor)·B/(B+EffHalfB).
	// Models the paper's observation that larger micro-batches use
	// matrix-multiply units better.
	EffHalfB float64
	// EffFloor is the efficiency at vanishing micro-batch size.
	EffFloor float64
}

// Efficiency returns the fraction of peak achieved at micro-batch size b
// (b may be fractional under backward halving).
func (d Device) Efficiency(b float64) float64 {
	if b <= 0 {
		b = 0.01
	}
	return d.EffFloor + (1-d.EffFloor)*b/(b+d.EffHalfB)
}

// Network models the interconnect with a latency-bandwidth (α-β) cost.
type Network struct {
	Name string
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the transfer time per byte for collectives (host-based,
	// pipelined — near link bandwidth).
	Beta float64
	// BetaP2P is the transfer time per byte for point-to-point activation
	// transfers. The paper's implementation stages p2p through GLOO on the
	// host CPU, so its effective bandwidth is far below the link rate;
	// this asymmetry is what lets bubbles absorb p2p (§3.5). Defaults to
	// Beta when zero.
	BetaP2P float64
}

// P2PCost returns α + β_p2p·bytes, the paper's point-to-point model.
func (n Network) P2PCost(bytes int64) float64 {
	b := n.BetaP2P
	if b == 0 {
		b = n.Beta
	}
	return n.Alpha + b*float64(bytes)
}

// AllReduceAlg selects the allreduce cost model.
type AllReduceAlg int

const (
	// ARRabenseifner uses 2·log2(r)·α + 2·(r−1)/r·β·L — bandwidth optimal,
	// the algorithm assumed in §3.4.
	ARRabenseifner AllReduceAlg = iota
	// ARRing uses 2·(r−1)·α + 2·(r−1)/r·β·L — the ring algorithm, kept as
	// an ablation of the design choice.
	ARRing
)

// AllReduceCost returns the cost of an allreduce of L bytes over r members.
func (n Network) AllReduceCost(alg AllReduceAlg, r int, bytes int64) float64 {
	if r <= 1 {
		return 0
	}
	l := float64(bytes)
	switch alg {
	case ARRing:
		return 2*float64(r-1)*n.Alpha + 2*(float64(r-1)/float64(r))*n.Beta*l
	default:
		return 2*log2(r)*n.Alpha + 2*(float64(r-1)/float64(r))*n.Beta*l
	}
}

func log2(r int) float64 {
	n := 0.0
	for v := 1; v < r; v <<= 1 {
		n++
	}
	return n
}

// PizDaintNode is a Cray XC50 node: one NVIDIA P100 (16 GB).
func PizDaintNode() Device {
	return Device{Name: "P100", PeakFLOPS: 9.3e12, MemBytes: 16 << 30, EffHalfB: 3, EffFloor: 0.18}
}

// AriesNetwork is the Cray Aries dragonfly interconnect as the paper used
// it: both collectives and p2p run over GLOO with host staging, well below
// the 10+ GB/s link rate; p2p pays an extra copy.
func AriesNetwork() Network {
	return Network{Name: "Aries", Alpha: 1.8e-6, Beta: 1.0 / 2.5e9, BetaP2P: 1.0 / 1.5e9}
}

// DefaultPlatform returns dev and net with the simulator's defaults filled
// in: a device with no PeakFLOPS is a Piz Daint node, a network with
// neither α nor β is Aries. It is the one statement of those defaults:
// every Config is validated through it, and the planner applies it to a
// request's platform.
func DefaultPlatform(dev Device, net Network) (Device, Network) {
	if dev.PeakFLOPS == 0 {
		dev = PizDaintNode()
	}
	if net.Beta == 0 && net.Alpha == 0 {
		net = AriesNetwork()
	}
	return dev, net
}

// V100Node is one V100 (32 GB) of the paper's small cluster.
func V100Node() Device {
	return Device{Name: "V100", PeakFLOPS: 15.7e12, MemBytes: 32 << 30, EffHalfB: 3, EffFloor: 0.18}
}

// NVLinkIBNetwork approximates the V100 cluster's mixed NVLink (intra-node)
// and InfiniBand (inter-node) fabric; p2p again pays GLOO host staging.
func NVLinkIBNetwork() Network {
	return Network{Name: "NVLink+IB", Alpha: 1.2e-6, Beta: 1.0 / 6.0e9, BetaP2P: 1.0 / 4.0e9}
}
