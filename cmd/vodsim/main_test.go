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
