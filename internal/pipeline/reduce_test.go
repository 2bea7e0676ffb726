package pipeline

import (
	"reflect"
	"slices"
	"testing"

	"cfd/internal/config"
	"cfd/internal/prog"
)

// TestReduceKeepsEveryReadLeaf pins what Reduce drops: the harness shares
// one run between the specs of a sweep whose configs reduce alike, so a
// leaf the core reads must survive the reduction. Each leaf of the
// baseline core is changed alone: renaming never changes the reduced
// config, the BQ-miss policy changes it only for a program with a
// BranchBQ, and every other leaf always does.
func TestReduceKeepsEveryReadLeaf(t *testing.T) {
	plain := prog.NewBuilder().Halt().MustBuild()
	withBQ := prog.NewBuilder().BranchBQ("done").Label("done").Halt().MustBuild()
	base := config.SandyBridge()
	leaves := 0
	eachLeaf(reflect.TypeOf(base), "", nil, func(path string, index []int) {
		leaves++
		other := base
		f := reflect.ValueOf(&other).Elem().FieldByIndex(index)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "-renamed")
		default:
			t.Fatalf("config field %s has kind %s; teach this test to change it", path, f.Kind())
		}
		for _, p := range []*prog.Program{plain, withBQ} {
			same := Reduce(other, p) == Reduce(base, p)
			want := path == "Name" || path == "BQMissPolicy" && p == plain
			if same != want {
				t.Errorf("changing %s (BranchBQ in program: %v): reduced configs equal = %v, want %v",
					path, p == withBQ, same, want)
			}
		}
	})
	if leaves < 40 {
		t.Fatalf("walked %d leaves of config.Core; the walk is broken", leaves)
	}
}

// eachLeaf calls visit with the dotted path and field index of every
// non-struct field of typ, descending into nested structs.
func eachLeaf(typ reflect.Type, path string, index []int, visit func(string, []int)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		idx := append(slices.Clone(index), i)
		if f.Type.Kind() == reflect.Struct {
			eachLeaf(f.Type, path+f.Name+".", idx, visit)
			continue
		}
		visit(path+f.Name, idx)
	}
}
