package telemetry

import (
	"reflect"
	"testing"
)

// TestCountersEachOrderStability pins the Each contract every consumer
// leans on: the visit order is fixed across calls, covers every struct
// field exactly once, and uses each field's JSON tag — so span
// annotations, the bench comparator's column zip, flight-recorder
// counter maps, and the /metrics series names all agree.
func TestCountersEachOrderStability(t *testing.T) {
	var first, second []string
	c := Counters{Checks: 1, LearntsRetained: 2}
	c.Each(func(name string, _ int64) { first = append(first, name) })
	c.Each(func(name string, _ int64) { second = append(second, name) })
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("Each order differs between calls:\n%v\n%v", first, second)
	}

	// Declaration order of the struct's JSON tags is the canonical
	// order; Each must match it field for field.
	var tags []string
	rt := reflect.TypeOf(Counters{})
	for i := 0; i < rt.NumField(); i++ {
		tag := rt.Field(i).Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Fatalf("field %s has no json tag", rt.Field(i).Name)
		}
		tags = append(tags, tag)
	}
	if !reflect.DeepEqual(first, tags) {
		t.Fatalf("Each order diverges from struct declaration order:\nEach: %v\ntags: %v", first, tags)
	}

	// Every name is unique (a duplicate would silently merge series).
	seen := make(map[string]bool, len(first))
	for _, n := range first {
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
}

// TestCountersFieldByField sets each field alone and checks that Each
// reports it under the field's JSON name, and that Add, Sub and IsZero
// see it: a field the arithmetic skipped would read zero in every sum.
func TestCountersFieldByField(t *testing.T) {
	rt := reflect.TypeOf(Counters{})
	for i := 0; i < rt.NumField(); i++ {
		var c Counters
		reflect.ValueOf(&c).Elem().Field(i).SetInt(int64(i + 1))
		tag := rt.Field(i).Tag.Get("json")
		c.Each(func(name string, v int64) {
			if (name == tag) != (v == int64(i+1)) || (name != tag && v != 0) {
				t.Errorf("field %s: Each reports %s = %d", rt.Field(i).Name, name, v)
			}
		})
		var sum Counters
		sum.Add(c)
		sum.Add(c)
		if got := reflect.ValueOf(sum).Field(i).Int(); got != int64(2*(i+1)) {
			t.Errorf("field %s: Add gives %d, want %d", rt.Field(i).Name, got, 2*(i+1))
		}
		if d := sum.Sub(c); d != c {
			t.Errorf("field %s: Sub gives %+v, want %+v", rt.Field(i).Name, d, c)
		}
		if c.IsZero() {
			t.Errorf("field %s: IsZero ignores it", rt.Field(i).Name)
		}
	}
}

// TestCountersAllocationFree checks that the arithmetic every query
// runs allocates nothing.
func TestCountersAllocationFree(t *testing.T) {
	a := Counters{Checks: 2, Conflicts: 5}
	b := Counters{Checks: 1, Propagations: 3}
	var sink bool
	n := testing.AllocsPerRun(100, func() {
		var sum Counters
		sum.Add(a)
		sum.Add(b.Sub(a))
		sink = sink != sum.IsZero()
	})
	if n != 0 {
		t.Errorf("Add, Sub and IsZero allocate %.1f objects, want 0", n)
	}
}
