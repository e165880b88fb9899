package main

import (
	"strings"
	"testing"
)

func TestPlanIgnores(t *testing.T) {
	for _, tc := range []struct {
		set    []string
		hetero bool
		want   string // flag named in the error; "" for no error
	}{
		{nil, false, ""},
		{[]string{"d", "mu", "n", "target-prob", "u"}, false, ""},
		{[]string{"hetero", "mu", "n", "ustar"}, true, ""},
		{[]string{"ustar"}, false, "-ustar"},
		{[]string{"hetero", "ustar"}, false, "-ustar"}, // -hetero 0
		{[]string{"hetero", "u"}, true, "-u"},
		{[]string{"d", "hetero"}, true, "-d"},
		{[]string{"hetero", "target-prob"}, true, "-target-prob"},
	} {
		err := planIgnores(tc.set, tc.hetero)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v hetero=%v: unexpected error %v", tc.set, tc.hetero, err)
		case tc.want != "" && err == nil:
			t.Errorf("%v hetero=%v: accepted, want an error naming %s", tc.set, tc.hetero, tc.want)
		case tc.want != "" && !strings.HasPrefix(err.Error(), tc.want+" "):
			t.Errorf("%v hetero=%v: error %q does not name %s", tc.set, tc.hetero, err, tc.want)
		}
	}
}
