// Package labels implements label sets and selectors for the miniature
// control plane. Selectors are the filtering vocabulary shared by the
// store's label index, the API server's filtered lists and watches, and the
// typed clients: a selector both *matches* label maps and *exposes its
// requirements* so the store can satisfy it from an index instead of a full
// scan.
package labels

import (
	"sort"
	"strings"
)

// Set is a map of label key → value with selector semantics: a Set used as
// a Selector matches labels that carry every key with the exact value.
type Set map[string]string

// Operator is a requirement's comparison operator.
type Operator string

// Requirement operators. Equals can be answered directly from the store's
// key→value posting lists; Exists from the union of a key's posting lists;
// NotEquals and DoesNotExist only filter (they never narrow an index scan).
const (
	Equals       Operator = "="
	NotEquals    Operator = "!="
	Exists       Operator = "exists"
	DoesNotExist Operator = "!exists"
)

// Requirement is one clause of a selector: key <op> value.
type Requirement struct {
	Key   string
	Op    Operator
	Value string // empty for Exists / DoesNotExist
}

// Matches reports whether the requirement holds for the given labels.
func (r Requirement) Matches(labels map[string]string) bool {
	v, ok := labels[r.Key]
	switch r.Op {
	case Equals:
		return ok && v == r.Value
	case NotEquals:
		return !ok || v != r.Value
	case Exists:
		return ok
	case DoesNotExist:
		return !ok
	}
	return false
}

// String renders the requirement in kubectl-style syntax.
func (r Requirement) String() string {
	switch r.Op {
	case Equals:
		return r.Key + "=" + r.Value
	case NotEquals:
		return r.Key + "!=" + r.Value
	case Exists:
		return r.Key
	case DoesNotExist:
		return "!" + r.Key
	}
	return ""
}

// Selector filters objects by their labels. Implementations must be
// immutable after construction — the store and watchers hold them across
// mutations.
type Selector interface {
	// Matches reports whether the labels satisfy every requirement.
	Matches(labels map[string]string) bool
	// Empty reports whether the selector matches everything.
	Empty() bool
	// Requirements returns the selector's clauses, for index planning.
	Requirements() []Requirement
	// String renders the selector in kubectl-style comma syntax.
	String() string
}

// selector is the standard conjunction-of-requirements implementation.
type selector []Requirement

// Everything returns a selector matching all objects.
func Everything() Selector { return selector(nil) }

// NewSelector builds a selector from explicit requirements.
func NewSelector(reqs ...Requirement) Selector {
	out := make(selector, len(reqs))
	copy(out, reqs)
	return out
}

// SelectorFromMap builds an equality selector requiring every key=value
// pair in m. Requirements are sorted by key for determinism. A nil or empty
// map selects everything.
func SelectorFromMap(m map[string]string) Selector {
	if len(m) == 0 {
		return Everything()
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(selector, 0, len(keys))
	for _, k := range keys {
		out = append(out, Requirement{Key: k, Op: Equals, Value: m[k]})
	}
	return out
}

// HasKey returns a selector matching objects that carry the label key,
// whatever its value.
func HasKey(key string) Selector {
	return selector{{Key: key, Op: Exists}}
}

// Matches implements Selector.
func (s selector) Matches(labels map[string]string) bool {
	for _, r := range s {
		if !r.Matches(labels) {
			return false
		}
	}
	return true
}

// Empty implements Selector.
func (s selector) Empty() bool { return len(s) == 0 }

// Requirements implements Selector.
func (s selector) Requirements() []Requirement {
	out := make([]Requirement, len(s))
	copy(out, s)
	return out
}

// String implements Selector.
func (s selector) String() string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// Matches lets a plain Set act as a Selector. Like the Equals requirements
// Requirements returns, every key must be present: Set{"k": ""} does not
// match labels without k.
func (s Set) Matches(labels map[string]string) bool {
	for k, v := range s {
		if got, ok := labels[k]; !ok || got != v {
			return false
		}
	}
	return true
}

// Empty implements Selector for Set.
func (s Set) Empty() bool { return len(s) == 0 }

// Requirements implements Selector for Set.
func (s Set) Requirements() []Requirement {
	return SelectorFromMap(s).Requirements()
}

// String implements Selector for Set.
func (s Set) String() string { return SelectorFromMap(s).String() }
