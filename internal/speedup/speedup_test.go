package speedup

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultModelFigure1Targets(t *testing.T) {
	m := DefaultModel()
	tests := []struct {
		class Class
		want  float64
		tol   float64
	}{
		{Conv, 32, 0.01},
		{MaxPool, 14, 0.01},
		{AvgPool, 7, 0.01},
	}
	for _, tc := range tests {
		got := m.Gain(tc.class, DeviceSMs)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%v gain at 68 SMs = %.3f, want %.1f", tc.class, got, tc.want)
		}
	}
	// "Other operations failed to exceed 7x."
	for _, cl := range []Class{ReLU, BatchNorm, Linear, Add, Softmax} {
		if g := m.Gain(cl, DeviceSMs); g > 7 {
			t.Errorf("%v gain at 68 SMs = %.3f, want <= 7", cl, g)
		}
	}
	// Ordering: conv > maxpool > everything else.
	conv := m.Gain(Conv, DeviceSMs)
	pool := m.Gain(MaxPool, DeviceSMs)
	if conv <= pool {
		t.Errorf("conv (%v) should beat maxpool (%v)", conv, pool)
	}
	for _, cl := range []Class{AvgPool, ReLU, BatchNorm, Linear, Add, Softmax} {
		if g := m.Gain(cl, DeviceSMs); g >= pool {
			t.Errorf("%v (%v) should be below maxpool (%v)", cl, g, pool)
		}
	}
}

func TestCurveMonotoneAndSaturating(t *testing.T) {
	m := DefaultModel()
	for _, cl := range Classes() {
		prev := 0.0
		for n := 1; n <= DeviceSMs; n++ {
			g := m.Gain(cl, float64(n))
			if g <= prev {
				t.Fatalf("%v gain not strictly increasing at %d SMs (%v <= %v)", cl, n, g, prev)
			}
			prev = g
		}
		c := m.Curve(cl)
		if c.Gain(DeviceSMs) >= c.A {
			t.Errorf("%v gain at full device (%v) should be below asymptote %v", cl, c.Gain(DeviceSMs), c.A)
		}
		// Diminishing returns: second half of SMs adds less than the first.
		firstHalf := m.Gain(cl, 34)
		secondHalf := c.Gain(DeviceSMs) - firstHalf
		if secondHalf >= firstHalf {
			t.Errorf("%v not saturating: first 34 SMs give %v, next 34 give %v", cl, firstHalf, secondHalf)
		}
	}
}

func TestCurveGainNearOneAtSingleSM(t *testing.T) {
	m := DefaultModel()
	for _, cl := range Classes() {
		g := m.Gain(cl, 1)
		if math.Abs(g-1) > 1e-9 {
			t.Errorf("%v gain at 1 SM = %v, want exactly 1", cl, g)
		}
	}
}

func TestGainAtZeroOrNegative(t *testing.T) {
	c := NewCurve(32)
	if g := c.Gain(0); g != 0 {
		t.Errorf("Gain(0) = %v, want 0", g)
	}
	if g := c.Gain(-5); g != 0 {
		t.Errorf("Gain(-5) = %v, want 0", g)
	}
}

func TestNewCurvePanicsOnBadInput(t *testing.T) {
	for _, gain := range []float64{0, 1, -1, 68, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCurve(%v) did not panic", gain)
				}
			}()
			NewCurve(gain)
		}()
	}
}

func TestNewModelMissingClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewModel with missing class did not panic")
		}
	}()
	NewModel(map[Class]Curve{Conv: NewCurve(32)})
}

func TestAggregateHarmonicComposition(t *testing.T) {
	m := DefaultModel()
	// A conv-dominated mix must land between the slowest component and conv.
	parts := []WorkShare{
		{Conv, 89},
		{MaxPool, 3},
		{BatchNorm, 4},
		{ReLU, 2},
		{Add, 1.5},
		{Linear, 0.5},
	}
	g := m.Aggregate(parts, DeviceSMs)
	if g <= m.Gain(Linear, DeviceSMs) || g >= m.Gain(Conv, DeviceSMs) {
		t.Errorf("aggregate %v outside (linear, conv) bounds", g)
	}
	// The ResNet18-like mix should land near the paper's 23x.
	if g < 18 || g > 28 {
		t.Errorf("ResNet18-like aggregate = %v, want ~23", g)
	}
}

func TestAggregateSingleClassMatchesCurve(t *testing.T) {
	m := DefaultModel()
	g := m.Aggregate([]WorkShare{{Conv, 10}}, 40)
	if math.Abs(g-m.Gain(Conv, 40)) > 1e-12 {
		t.Errorf("single-class aggregate %v != curve %v", g, m.Gain(Conv, 40))
	}
}

func TestAggregateEdgeCases(t *testing.T) {
	m := DefaultModel()
	if g := m.Aggregate(nil, 68); g != 0 {
		t.Errorf("empty aggregate = %v, want 0", g)
	}
	if g := m.Aggregate([]WorkShare{{Conv, 0}}, 68); g != 0 {
		t.Errorf("zero-work aggregate = %v, want 0", g)
	}
	if g := m.Aggregate([]WorkShare{{Conv, 5}}, 0); g != 0 {
		t.Errorf("zero-SM aggregate = %v, want 0", g)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative work did not panic")
		}
	}()
	m.Aggregate([]WorkShare{{Conv, -1}}, 68)
}

func TestTableShape(t *testing.T) {
	m := DefaultModel()
	sms := []int{1, 2, 4, 8, 16, 32, 68}
	tab := m.Table(sms)
	if len(tab) != int(NumClasses) {
		t.Fatalf("table has %d classes, want %d", len(tab), NumClasses)
	}
	for cl, row := range tab {
		if len(row) != len(sms) {
			t.Fatalf("%v row has %d entries, want %d", cl, len(row), len(sms))
		}
	}
	if math.Abs(tab[Conv][len(sms)-1]-32) > 0.01 {
		t.Errorf("conv at 68 = %v, want 32", tab[Conv][len(sms)-1])
	}
}

func TestClassString(t *testing.T) {
	if Conv.String() != "conv" || MaxPool.String() != "maxpool" {
		t.Error("class names wrong")
	}
	if Class(99).String() != "class(99)" {
		t.Errorf("out-of-range class string = %q", Class(99).String())
	}
	if len(Classes()) != int(NumClasses) {
		t.Errorf("Classes() returned %d entries", len(Classes()))
	}
}

// Property: for any valid curve, gain is monotone in n and bounded by A.
func TestCurveBoundsProperty(t *testing.T) {
	f := func(rawGain, rawN uint16) bool {
		gain := 1.5 + float64(rawGain%66)
		if gain >= DeviceSMs {
			gain = 67
		}
		n := float64(rawN%200) + 0.5
		c := NewCurve(gain)
		g := c.Gain(n)
		return g > 0 && g < c.A && c.Gain(n+1) > g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: aggregate gain always lies within [min, max] of component gains.
func TestAggregateBoundsProperty(t *testing.T) {
	m := DefaultModel()
	f := func(w1, w2, w3 uint8, rawN uint16) bool {
		n := 1 + float64(rawN%68)
		parts := []WorkShare{
			{Conv, float64(w1) + 0.1},
			{MaxPool, float64(w2) + 0.1},
			{ReLU, float64(w3) + 0.1},
		}
		g := m.Aggregate(parts, n)
		lo := math.Inf(1)
		hi := math.Inf(-1)
		for _, p := range parts {
			pg := m.Gain(p.Class, n)
			lo = math.Min(lo, pg)
			hi = math.Max(hi, pg)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
