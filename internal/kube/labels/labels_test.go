package labels

import (
	"reflect"
	"testing"
)

func TestRequirementMatchesAndString(t *testing.T) {
	with := map[string]string{"app": "web", "tier": ""}
	cases := []struct {
		req        Requirement
		str        string
		onWith     bool // against {app=web, tier=""}
		onMissing  bool // against labels without the key
		onOtherVal bool // against {app: "db"}
	}{
		{Requirement{"app", Equals, "web"}, "app=web", true, false, false},
		{Requirement{"tier", Equals, ""}, "tier=", true, false, false},
		{Requirement{"app", NotEquals, "web"}, "app!=web", false, true, true},
		{Requirement{"tier", NotEquals, ""}, "tier!=", false, true, true},
		{Requirement{"app", Exists, ""}, "app", true, false, true},
		{Requirement{"tier", Exists, ""}, "tier", true, false, false},
		{Requirement{"app", DoesNotExist, ""}, "!app", false, true, false},
		{Requirement{"tier", DoesNotExist, ""}, "!tier", false, true, true},
		{Requirement{"app", Operator("~"), "web"}, "", false, false, false},
	}
	for _, c := range cases {
		if got := c.req.String(); got != c.str {
			t.Errorf("%+v: String() = %q, want %q", c.req, got, c.str)
		}
		if got := c.req.Matches(with); got != c.onWith {
			t.Errorf("%s: Matches(%v) = %v, want %v", c.str, with, got, c.onWith)
		}
		if got := c.req.Matches(map[string]string{"zone": "z"}); got != c.onMissing {
			t.Errorf("%s: Matches(no key) = %v, want %v", c.str, got, c.onMissing)
		}
		if got := c.req.Matches(nil); got != c.onMissing {
			t.Errorf("%s: Matches(nil) = %v, want %v", c.str, got, c.onMissing)
		}
		if got := c.req.Matches(map[string]string{"app": "db"}); got != c.onOtherVal {
			t.Errorf("%s: Matches(app=db) = %v, want %v", c.str, got, c.onOtherVal)
		}
	}
}

func TestSelectorFromMapSortsKeys(t *testing.T) {
	sel := SelectorFromMap(map[string]string{"zone": "z1", "app": "web", "tier": ""})
	want := []Requirement{
		{"app", Equals, "web"},
		{"tier", Equals, ""},
		{"zone", Equals, "z1"},
	}
	if got := sel.Requirements(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Requirements() = %v, want %v", got, want)
	}
	if got := sel.String(); got != "app=web,tier=,zone=z1" {
		t.Fatalf("String() = %q", got)
	}
	if sel.Empty() {
		t.Fatal("three-key selector reports Empty")
	}
	// Requirements hands out a copy: editing it must not change the selector.
	sel.Requirements()[0].Value = "db"
	if !sel.Matches(map[string]string{"app": "web", "tier": "", "zone": "z1"}) {
		t.Fatal("selector changed through its Requirements slice")
	}
}

func TestSelectorFromEmptyMapMatchesEverything(t *testing.T) {
	for _, m := range []map[string]string{nil, {}} {
		sel := SelectorFromMap(m)
		if !sel.Empty() || len(sel.Requirements()) != 0 || sel.String() != "" {
			t.Fatalf("SelectorFromMap(%v): empty=%v reqs=%v str=%q",
				m, sel.Empty(), sel.Requirements(), sel.String())
		}
		for _, lbls := range []map[string]string{nil, {}, {"app": "web"}} {
			if !sel.Matches(lbls) {
				t.Fatalf("SelectorFromMap(%v) rejects %v", m, lbls)
			}
		}
	}
	if !Everything().Empty() || !Everything().Matches(map[string]string{"a": "b"}) {
		t.Fatal("Everything() is not the empty match-all selector")
	}
}

// Fuzz alphabets: a few keys and values, so random Sets and label maps
// overlap often enough for every match outcome to occur. The empty key and
// value and a value holding selector syntax are deliberate edge cases.
var (
	fuzzKeys = []string{"app", "tier", "zone", ""}
	fuzzVals = []string{"", "a", "b", "a=b,c"}
)

// decodeLabels maps each byte to one key=value entry (low two bits pick the
// key, the next two the value); later bytes overwrite earlier ones.
func decodeLabels(spec []byte) map[string]string {
	m := make(map[string]string)
	for _, b := range spec {
		m[fuzzKeys[b&3]] = fuzzVals[(b>>2)&3]
	}
	return m
}

// FuzzSelectorAgreement is the label-selector fuzz target: for any Set and
// label map, the three ways to evaluate an equality selector — Set.Matches,
// SelectorFromMap(set).Matches and the conjunction of Set.Requirements() —
// must agree, and the Set and its map selector must describe themselves
// identically. The store answers ListSelector from the Requirements index
// and filters watches with Matches, so a disagreement here is a list/watch
// disagreement there.
func FuzzSelectorAgreement(f *testing.F) {
	f.Fuzz(func(t *testing.T, setSpec, lblSpec []byte) {
		set := Set(decodeLabels(setSpec))
		lbls := decodeLabels(lblSpec)
		sel := SelectorFromMap(set)

		viaSet := set.Matches(lbls)
		viaSel := sel.Matches(lbls)
		viaReqs := true
		for _, r := range set.Requirements() {
			if r.Op != Equals {
				t.Fatalf("Set %v produced non-Equals requirement %v", set, r)
			}
			viaReqs = viaReqs && r.Matches(lbls)
		}
		if viaSet != viaSel || viaSet != viaReqs {
			t.Fatalf("set %v on labels %v: Set.Matches=%v SelectorFromMap.Matches=%v Requirements=%v",
				set, lbls, viaSet, viaSel, viaReqs)
		}
		if set.Empty() != sel.Empty() || set.String() != sel.String() {
			t.Fatalf("set %v: Empty %v/%v String %q/%q", set,
				set.Empty(), sel.Empty(), set.String(), sel.String())
		}
		// A label map always satisfies the Set built from itself.
		if !Set(lbls).Matches(lbls) {
			t.Fatalf("labels %v do not match their own Set", lbls)
		}
	})
}
