package main

import (
	"reflect"
	"testing"
)

// TestVerifyCounts: the verification sweep around a predicted pivot never
// asks for fewer than one task, so a low pivot still sweeps its valid
// neighbours instead of failing the whole sweep.
func TestVerifyCounts(t *testing.T) {
	cases := []struct {
		pivot int
		want  []int
	}{
		{24, []int{22, 24, 26}},
		{3, []int{1, 3, 5}},
		{2, []int{2, 4}},
		{1, []int{1, 3}},
		{0, []int{2}},
	}
	for _, c := range cases {
		if got := verifyCounts(c.pivot); !reflect.DeepEqual(got, c.want) {
			t.Errorf("verifyCounts(%d) = %v, want %v", c.pivot, got, c.want)
		}
	}
}
