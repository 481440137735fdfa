package sweepd

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"memsched/internal/sim"
)

// resultKeyPaths lists every JSON key path of typ as "path:type", sorted.
// Slice and array elements add "[]" to the path; a type with its own
// MarshalJSON is a leaf, named by its Go type.
func resultKeyPaths(typ reflect.Type) []string {
	var out []string
	var walk func(t reflect.Type, path string)
	marshaler := reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	walk = func(t reflect.Type, path string) {
		for t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		switch {
		case t.Implements(marshaler) || reflect.PointerTo(t).Implements(marshaler):
			out = append(out, path+":"+t.String())
		case t.Kind() == reflect.Slice || t.Kind() == reflect.Array:
			walk(t.Elem(), path+"[]")
		case t.Kind() == reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				f := t.Field(i)
				if !f.IsExported() {
					continue
				}
				name := f.Name
				if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag == "-" {
					continue
				} else if tag != "" {
					name = tag
				}
				if f.Anonymous && f.Tag.Get("json") == "" {
					walk(f.Type, path) // embedded fields are promoted
					continue
				}
				p := name
				if path != "" {
					p = path + "." + name
				}
				walk(f.Type, p)
			}
		default:
			out = append(out, path+":"+t.String())
		}
	}
	walk(typ, "")
	sort.Strings(out)
	return out
}

// TestCacheSchemaPinned ties cacheMeta to the sim.Result JSON schema: a
// changed key set fails here until resultSchema is updated, and with it
// cacheMeta is bumped so caches written under the old schema are discarded
// instead of served as if their bytes were current.
func TestCacheSchemaPinned(t *testing.T) {
	got := resultKeyPaths(reflect.TypeOf(sim.Result{}))
	if !reflect.DeepEqual(got, resultSchema) {
		t.Errorf("sim.Result JSON schema changed; bump cacheMeta (now %q) and set resultSchema to:\n\t%q",
			cacheMeta, got)
	}
	for _, want := range []string{"Cores[].IPC:float64", "ClassLat[].hist:stats.LatencyHist"} {
		i := sort.SearchStrings(got, want)
		if i == len(got) || got[i] != want {
			t.Errorf("key path %q missing from %q", want, got)
		}
	}
}
