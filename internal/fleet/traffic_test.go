package fleet

import (
	"math"
	"strings"
	"testing"
)

// TestTrafficMenuValidation pins that New rejects a traffic menu
// entry Run could never place — a load outside cluster.Place's
// [0, 1.5] range (NaN and ±Inf included) or an unknown workload —
// instead of aborting the simulation at the first arrival that draws
// it.
func TestTrafficMenuValidation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string // error substring; "" means valid
	}{
		{"default LC", JobSpec{Workload: "memcached", Load: 0.2, Weight: 1}, ""},
		{"BG", JobSpec{Workload: "swaptions", Weight: 1}, ""},
		{"upper bound", JobSpec{Workload: "memcached", Load: 1.5, Weight: 1}, ""},
		{"NaN load", JobSpec{Workload: "memcached", Load: math.NaN(), Weight: 1}, "out of range"},
		{"+Inf load", JobSpec{Workload: "memcached", Load: math.Inf(1), Weight: 1}, "out of range"},
		{"-Inf load", JobSpec{Workload: "memcached", Load: math.Inf(-1), Weight: 1}, "out of range"},
		{"negative load", JobSpec{Workload: "memcached", Load: -0.1, Weight: 1}, "out of range"},
		{"overload", JobSpec{Workload: "memcached", Load: 1.51, Weight: 1}, "out of range"},
		{"unknown workload", JobSpec{Workload: "not-a-workload", Load: 0.2, Weight: 1}, "unknown workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := smallOpts(1, 1)
			opts.Traffic.Menu = []JobSpec{{Workload: "swaptions", Weight: 1}, tc.spec}
			_, err := New(opts)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("valid entry rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}
