package workload

import (
	"reflect"
	"testing"

	"cfd/internal/config"
)

// perturb changes every leaf field of v (a settable struct value) except
// those skip names, so a test can ask whether anything reads them.
func perturb(t *testing.T, v reflect.Value, path string, skip map[string]bool) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		if skip[name] {
			continue
		}
		switch f.Kind() {
		case reflect.Struct:
			perturb(t, f, name+".", skip)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int()*2 + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float()*2 + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "-perturbed")
		default:
			t.Fatalf("config field %s has kind %s; teach perturb to change it", name, f.Kind())
		}
	}
}

// TestBuildForReadsOnlyQueueSizes pins what a build depends on: the
// harness shares one build between every spec with the same workload,
// variant, input size and BQ/VQ/TQ capacities, so BuildFor must not read
// any other core field. Every workload variant is built for the baseline
// core and for one whose other fields all differ, among them everything
// the manifests sweep (window, predictor, BQ miss policy, depth, cache
// sizes); the programs and the images must be the same.
func TestBuildForReadsOnlyQueueSizes(t *testing.T) {
	base := config.SandyBridge()
	other := config.Scaled(640).WithDepth(20)
	other.Predictor = config.PredGshare
	other.BQMissPolicy = config.StallFetch
	perturb(t, reflect.ValueOf(&other).Elem(), "", map[string]bool{
		"BQSize": true, "VQSize": true, "TQSize": true,
	})
	if other.ROBSize == base.ROBSize || other.Predictor == base.Predictor ||
		other.BQMissPolicy == base.BQMissPolicy || other.FrontEndDepth == base.FrontEndDepth ||
		other.Cache.L1.SizeKB == base.Cache.L1.SizeKB || other.Cache.L3.SizeKB == base.Cache.L3.SizeKB {
		t.Fatalf("the perturbed config keeps a swept field: %+v", other)
	}
	if other.BQSize != base.BQSize || other.VQSize != base.VQSize || other.TQSize != base.TQSize {
		t.Fatal("the perturbed config changed a queue size")
	}
	for _, s := range All() {
		for _, v := range s.Variants {
			p1, m1, err1 := s.BuildFor(base, v, s.TestN)
			p2, m2, err2 := s.BuildFor(other, v, s.TestN)
			if err1 != nil || err2 != nil {
				t.Errorf("%s/%s: %v / %v", s.Name, v, err1, err2)
				continue
			}
			if p1.Disassemble() != p2.Disassemble() {
				t.Errorf("%s/%s: the program depends on a core field other than the queue sizes", s.Name, v)
			}
			if !m1.Equal(m2) {
				t.Errorf("%s/%s: the initial image depends on a core field other than the queue sizes", s.Name, v)
			}
		}
	}
}
