package service

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/isa"
	"github.com/tracereuse/tlr/internal/workload"
)

// keyOf returns the cache key of the job params builds over a keyed
// source.
func keyOf(t *testing.T, params any) string {
	t.Helper()
	src := ProgSource("prog:test", &isa.Program{})
	switch p := params.(type) {
	case StudyParams:
		return StudyJob("j", src, p).Key
	case RTMParams:
		return RTMJob("j", src, p).Key
	case PipelineParams:
		return PipelineJob("j", src, p).Key
	case VPParams:
		return VPJob("j", src, p).Key
	case AnalyzeParams:
		return AnalyzeJob("j", src, p).Key
	}
	t.Fatalf("no job builder for %T", params)
	return ""
}

// TestJobKeyCoversEveryField walks every field of every kind's
// parameters by reflection — into rtm.Config (Verify included), its
// Geometry and the pipeline's nested RTM — and requires that setting
// any one of them to a non-zero, non-default value changes the key: a
// field the key missed would let one configuration be answered with
// another's cached result.  A field of a kind the walk cannot set fails
// the test, so new fields are covered as they are declared.
func TestJobKeyCoversEveryField(t *testing.T) {
	for _, params := range []any{StudyParams{}, RTMParams{}, PipelineParams{}, VPParams{}, AnalyzeParams{}} {
		root := reflect.New(reflect.TypeOf(params))
		key := func() string { return keyOf(t, root.Elem().Interface()) }
		if key() == "" {
			t.Fatalf("%T: keyed source gave an unkeyed job", params)
		}
		walkKeyFields(t, root.Type().Elem().Name(), root.Elem(), key)
	}
}

// walkKeyFields sets each field of the struct v in turn (recursing into
// structs, pointees and slice elements), checks the key moved off its
// value before the change, and restores the field.
func walkKeyFields(t *testing.T, path string, v reflect.Value, key func() string) {
	base := key()
	changed := func(field string) {
		if key() == base {
			t.Errorf("%s does not change the cache key", field)
		}
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := path + "." + v.Type().Field(i).Name
		old := reflect.New(f.Type()).Elem()
		old.Set(f)
		switch f.Kind() {
		case reflect.Struct:
			walkKeyFields(t, name, f, key)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
			changed(name + " (set)")
			walkKeyFields(t, name, f.Elem(), key)
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			if e := f.Index(0); e.Kind() == reflect.Struct {
				changed(name + " (one zero element)")
				walkKeyFields(t, name+"[0]", e, key)
			} else {
				setNonZero(t, name, e)
				changed(name)
			}
		default:
			setNonZero(t, name, f)
			changed(name)
		}
		f.Set(old)
	}
}

// setNonZero gives a scalar field a value that is neither zero nor any
// kind's default (3 is no default count or size, 0.75 no default
// latency).
func setNonZero(t *testing.T, name string, f reflect.Value) {
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(3)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(0.75)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.String:
		f.SetString("x")
	default:
		t.Fatalf("%s: the key walk cannot set a %s field", name, f.Kind())
	}
}

// TestUnencodableParamsRunUnkeyed: a NaN latency has no JSON encoding, so
// its job runs without a cache key — and still returns its result.
func TestUnencodableParamsRunUnkeyed(t *testing.T) {
	w, _ := workload.ByName("li")
	prog, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	p := StudyParams{Budget: 2000, TLRVariants: []core.Latency{{Const: math.NaN()}}}
	job := StudyJob("nan", ProgSource("workload:li", prog), p)
	if job.Key != "" {
		t.Fatalf("NaN latency keyed as %q, want unkeyed", job.Key)
	}
	s := New(Options{Workers: 1})
	defer s.Close()
	res, err := s.Submit(context.Background(), []Job{job}, 0).Wait()
	if err != nil {
		t.Fatal(err)
	}
	out, ok := res[0].Value.(StudyOutput)
	if !ok || out.TLR.Instructions != 2000 || res[0].Cached {
		t.Errorf("NaN-latency study returned %+v (cached %v), want a 2000-instruction result", res[0].Value, res[0].Cached)
	}
}
