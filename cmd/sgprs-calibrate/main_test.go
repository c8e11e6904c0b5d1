package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestCalibrationCounts: the grid around the target pivot drops counts
// below 1, and a target pivot below 1 is rejected naming the flag.
func TestCalibrationCounts(t *testing.T) {
	cases := []struct {
		target  int
		want    []int
		wantErr bool
	}{
		{24, []int{22, 23, 24, 25, 26, 28}, false},
		{3, []int{1, 2, 3, 4, 5, 7}, false},
		{2, []int{1, 2, 3, 4, 6}, false},
		{1, []int{1, 2, 3, 5}, false},
		{0, nil, true},
		{-4, nil, true},
	}
	for _, c := range cases {
		got, err := calibrationCounts(c.target)
		if c.wantErr {
			if err == nil || !strings.Contains(err.Error(), "-target-pivot") {
				t.Errorf("calibrationCounts(%d) error = %v, want one naming -target-pivot", c.target, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("calibrationCounts(%d) = %v, %v; want %v", c.target, got, err, c.want)
		}
	}
}
