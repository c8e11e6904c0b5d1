package dnn

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestPartitionSingleflight: concurrent Partition calls on one graph and
// stage count share one chain, equal to the uncached computation's; another
// stage count is another chain.
func TestPartitionSingleflight(t *testing.T) {
	g := ResNet18(DefaultCostModel())
	const workers = 8
	got := make([][]*Stage, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Partition(g, 6)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &got[i][0] != &got[0][0] {
			t.Fatalf("worker %d received a chain of its own", i)
		}
	}
	want, err := partition(ResNet18(DefaultCostModel()), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatal("memoized chain differs from the uncached one")
	}

	four, err := Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(four) != 4 {
		t.Fatalf("4-stage lookup returned %d stages", len(four))
	}
}

// TestPartitionErrorMemoized: a stage count the graph cannot be cut into
// returns one error, computed once and then served again.
func TestPartitionErrorMemoized(t *testing.T) {
	g := ResNet18(DefaultCostModel())
	_, a := Partition(g, 1000)
	if a == nil {
		t.Fatal("Partition accepted 1000 stages")
	}
	if _, b := Partition(g, 1000); b != a {
		t.Fatalf("second call returned %v, want the memoized %v", b, a)
	}
}

// TestPartitionDistinctGraphs: the memo lives on the graph, so two graphs
// with equal ops are cut separately and hold chains of their own.
func TestPartitionDistinctGraphs(t *testing.T) {
	a, err := Partition(ResNet18(DefaultCostModel()), 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(ResNet18(DefaultCostModel()), 6)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] == &b[0] {
		t.Fatal("two graphs share one chain")
	}
	if !reflect.DeepEqual(a[0].Shares, b[0].Shares) {
		t.Fatal("equal graphs were cut differently")
	}
}

// TestPartitionAfterScale: Scale drops the memo, so the next chain carries
// the scaled work.
func TestPartitionAfterScale(t *testing.T) {
	g := ResNet18(DefaultCostModel())
	before, err := Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	work := before[0].WorkMS
	g.Scale(2)
	after, err := Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := after[0].WorkMS; math.Abs(got-2*work) > 1e-12*work {
		t.Fatalf("stage 0 work %v after Scale(2), want %v", got, 2*work)
	}
}
