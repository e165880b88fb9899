package main

import (
	"strings"
	"testing"
)

func TestScenarioIgnores(t *testing.T) {
	for _, tc := range []struct {
		set  []string
		want string // flag named in the error; "" for no error
	}{
		{[]string{"scenario"}, ""},
		{[]string{"golden", "scenario", "seed"}, ""},
		{[]string{"scenario", "seeds", "workers"}, ""},
		{[]string{"record", "scenario"}, "-record"},
		{[]string{"n", "scenario", "trace"}, "-n"},
		{[]string{"scenario", "seed", "u"}, "-u"},
		{[]string{"replay", "scenario"}, "-replay"},
		{[]string{"audit", "scenario"}, "-audit"},
	} {
		err := scenarioIgnores(tc.set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.set, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %s", tc.set, tc.want)
		case tc.want != "" && !strings.HasPrefix(err.Error(), tc.want+" "):
			t.Errorf("%v: error %q does not name %s", tc.set, err, tc.want)
		}
	}
}

func TestSimIgnores(t *testing.T) {
	for _, tc := range []struct {
		set      []string
		hetero   bool
		replay   bool
		workload string
		want     string // flag named in the error; "" for no error
	}{
		{[]string{"n", "u", "d", "load", "zipf-s"}, false, false, "zipf", ""},
		{[]string{"hetero", "ustar", "mu", "workload"}, true, false, "poor", ""},
		{[]string{"hetero", "u"}, true, false, "zipf", "-u"},
		{[]string{"d", "hetero"}, true, false, "zipf", "-d"},
		{[]string{"ustar"}, false, false, "zipf", "-ustar"},
		{[]string{"hetero", "ustar"}, false, false, "zipf", "-ustar"}, // -hetero 0
		{[]string{"replay", "rounds"}, false, true, "zipf", ""},
		{[]string{"replay", "workload"}, false, true, "flash", "-workload"},
		{[]string{"load", "replay"}, false, true, "zipf", "-load"},
		{[]string{"replay", "zipf-s"}, false, true, "zipf", "-zipf-s"},
		{[]string{"load", "workload"}, false, false, "flash", "-load"},
		{[]string{"workload", "zipf-s"}, false, false, "avoid", "-zipf-s"},
		{[]string{"hetero", "load", "workload"}, true, false, "poor", "-load"},
	} {
		err := simIgnores(tc.set, tc.hetero, tc.replay, tc.workload)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.set, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %s", tc.set, tc.want)
		case tc.want != "" && !strings.HasPrefix(err.Error(), tc.want+" "):
			t.Errorf("%v: error %q does not name %s", tc.set, err, tc.want)
		}
	}
}
