package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
)

// TestWaterfillWorkConserving: with over-subscribed contexts and uneven
// load, the busier context must receive more SMs — the benefit larger
// partitions buy (DESIGN.md §4, layer 2).
func TestWaterfillWorkConserving(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	// Two 68-SM contexts (2x over-subscription): 1 kernel in A, 3 in B.
	a, _ := dev.CreateContext("a", 68)
	bctx, _ := dev.CreateContext("b", 68)
	ka := convKernel("ka", 50)
	streams := []*Stream{
		bctx.AddStream("s0", LowPriority),
		bctx.AddStream("s1", LowPriority),
		bctx.AddStream("s2", LowPriority),
	}
	var kbs []*Kernel
	for _, s := range streams {
		kb := convKernel("kb", 50)
		kbs = append(kbs, kb)
		s.Submit(kb)
	}
	a.AddStream("s", LowPriority).Submit(ka)
	// Sample effective SMs shortly after all four started.
	eng.RunUntil(des.FromMillis(1))
	aSMs := ka.effSMs
	var bSMs float64
	for _, kb := range kbs {
		bSMs += kb.effSMs
	}
	// Weights 1 vs 3 → A gets 17, B gets 51 (both under their 68 caps).
	if math.Abs(aSMs-17) > 0.01 || math.Abs(bSMs-51) > 0.01 {
		t.Errorf("allocation A=%v B=%v, want 17/51 (load-proportional)", aSMs, bSMs)
	}
}

// TestWaterfillRigidAtNoOversubscription: with disjoint partitions (no
// over-subscription) each busy context gets exactly its own allocation, no
// matter how uneven the load — the rigidity the paper's Scenario 1 os=1.0
// suffers from.
func TestWaterfillRigidAtNoOversubscription(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	a, _ := dev.CreateContext("a", 34)
	bctx, _ := dev.CreateContext("b", 34)
	ka := convKernel("ka", 50)
	kb1 := convKernel("kb1", 50)
	kb2 := convKernel("kb2", 50)
	a.AddStream("s", LowPriority).Submit(ka)
	bctx.AddStream("s0", LowPriority).Submit(kb1)
	bctx.AddStream("s1", LowPriority).Submit(kb2)
	eng.RunUntil(des.FromMillis(1))
	if math.Abs(ka.effSMs-34) > 0.01 {
		t.Errorf("A kernel = %v SMs, want its full 34", ka.effSMs)
	}
	if math.Abs(kb1.effSMs-17) > 0.01 || math.Abs(kb2.effSMs-17) > 0.01 {
		t.Errorf("B kernels = %v/%v SMs, want 17 each", kb1.effSMs, kb2.effSMs)
	}
}

// setLoad gives ctx the running-kernel weight w without running kernels,
// keeping the device's busy demand consistent as start and complete do.
func setLoad(dev *Device, ctx *Context, w float64) {
	if ctx.weightSum > 0 {
		dev.busyDemand -= ctx.sms
	}
	ctx.weightSum = w
	if w > 0 {
		dev.busyDemand += ctx.sms
	}
}

// sharesAt is what setShares stores for ctx at an allocation of alloc SMs.
func sharesAt(ctx *Context, alloc float64) [2]float64 {
	return [2]float64{alloc * lowWeight / ctx.weightSum, alloc * highWeight / ctx.weightSum}
}

// Property: waterfill never allocates more than a context's own SMs, never
// more than the device in total, and gives every loaded context a positive
// share.
func TestWaterfillBoundsProperty(t *testing.T) {
	f := func(rawSMs [4]uint8, rawLoad [4]uint8) bool {
		eng := des.NewEngine()
		dev, err := NewDevice(eng, speedup.DefaultModel(), quietConfig())
		if err != nil {
			return false
		}
		var ctxs []*Context
		for i := 0; i < 4; i++ {
			sms := int(rawSMs[i]%68) + 1
			ctx, err := dev.CreateContext("c", sms)
			if err != nil {
				return false
			}
			setLoad(dev, ctx, float64(rawLoad[i]%5))
			ctxs = append(ctxs, ctx)
		}
		dev.waterfill()
		var total float64
		for _, ctx := range ctxs {
			if ctx.weightSum == 0 {
				if ctx.shares != [2]float64{} {
					return false // an idle context's shares are never set
				}
				continue
			}
			// The low-priority share is alloc·1/weightSum.
			alloc := ctx.shares[LowPriority] * ctx.weightSum
			if alloc <= 0 || alloc > float64(ctx.sms)+1e-9 {
				return false
			}
			total += alloc
		}
		return total <= float64(dev.cfg.TotalSMs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: when total demand fits the device, every loaded context receives
// exactly — to the last float bit, since the early out in waterfill claims
// bit-identity with the redistribution loop — its full allocation
// (waterfilling degenerates to rigid partitions).
func TestWaterfillFullAllocationProperty(t *testing.T) {
	f := func(rawSMs [3]uint8, rawLoad [3]uint8) bool {
		eng := des.NewEngine()
		dev, err := NewDevice(eng, speedup.DefaultModel(), quietConfig())
		if err != nil {
			return false
		}
		var ctxs []*Context
		budget := 68
		for i := 0; i < 3; i++ {
			s := int(rawSMs[i]%20) + 1 // ≤ 60 total: never over-subscribed
			budget -= s
			ctx, err := dev.CreateContext("c", s)
			if err != nil {
				return false
			}
			setLoad(dev, ctx, float64(rawLoad[i]%3))
			ctxs = append(ctxs, ctx)
		}
		if budget < 0 {
			return true
		}
		dev.waterfill()
		for _, ctx := range ctxs {
			if ctx.weightSum > 0 && ctx.shares != sharesAt(ctx, float64(ctx.sms)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWaterfillEarlyOutMatchesLoop pins the early out's bit-identity claim
// directly: for demand that exactly fills the device, with uneven integer
// weights, the redistribution loop — forced by overstating the busy demand,
// which real runs never do — sets the same shares, to the last bit, as the
// early out. Real coverage of the mixed regimes comes from the randomized
// event digest in engine_digest_test.go.
func TestWaterfillEarlyOutMatchesLoop(t *testing.T) {
	eng := des.NewEngine()
	dev, err := NewDevice(eng, speedup.DefaultModel(), quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	sms := []int{7, 20, 41}
	weights := []float64{3, 1, 7}
	for i, s := range sms {
		ctx, err := dev.CreateContext("c", s)
		if err != nil {
			t.Fatal(err)
		}
		setLoad(dev, ctx, weights[i])
	}
	dev.waterfill() // demand == TotalSMs: the early out
	for i, ctx := range dev.contexts {
		if want := sharesAt(ctx, float64(sms[i])); ctx.shares != want {
			t.Errorf("ctx %d: early-out shares %v, want exactly %v", i, ctx.shares, want)
		}
	}
	dev.busyDemand = dev.effSMs + 1 // force the loop
	dev.waterfill()
	for i, ctx := range dev.contexts {
		if want := sharesAt(ctx, float64(sms[i])); ctx.shares != want {
			t.Errorf("ctx %d: loop shares %v, want exactly %v", i, ctx.shares, want)
		}
	}
}
