package service

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"github.com/tracereuse/tlr/internal/core"
	"github.com/tracereuse/tlr/internal/pipeline"
	"github.com/tracereuse/tlr/internal/rtm"
	"github.com/tracereuse/tlr/internal/workload"
)

// FuzzResultEnvelope hardens result-cache rehydration: a persisted
// envelope is read back from a directory a restarted node trusts only
// as far as readEnvelope and the per-kind json.Unmarshal check it, so
// no byte sequence may panic them.  An envelope that rehydration
// indexes must load, its value must be of the kind the envelope names,
// and saving that value again must load back equal (what a warm hit
// serves is what the cache would have written).  Seeds are the saved
// envelopes of one job of every persisted kind, plus damaged copies.
func FuzzResultEnvelope(f *testing.F) {
	w, ok := workload.ByName("compress")
	if !ok {
		f.Fatal("workload compress missing")
	}
	prog, err := w.Program()
	if err != nil {
		f.Fatal(err)
	}
	src := ProgSource("prog:compress", prog)
	jobs := []Job{
		StudyJob("study", src, StudyParams{Budget: 2000}),
		RTMJob("rtm", src, RTMParams{Config: rtm.Config{Geometry: rtm.Geometry4K, Heuristic: rtm.ILREXP}, Budget: 2000}),
		PipelineJob("pipeline", src, PipelineParams{Config: pipeline.Config{}, Budget: 2000}),
		VPJob("vp", src, VPParams{Config: core.VPConfig{Window: 64}, Budget: 2000}),
	}
	s := New(Options{Workers: 1})
	res, err := s.Submit(context.Background(), jobs, 0).Wait()
	s.Close()
	if err != nil {
		f.Fatal(err)
	}
	seedDir := f.TempDir()
	d := newResultDisk(seedDir)
	for i, r := range res {
		if r.Err != nil {
			f.Fatalf("%s: %v", jobs[i].ID, r.Err)
		}
		if ok, err := d.save(jobs[i].Key, r.Value); !ok || err != nil {
			f.Fatalf("%s: saving: %v, %v", jobs[i].ID, ok, err)
		}
		env, err := os.ReadFile(d.path(jobs[i].Key))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		f.Add(env[:len(env)/2])
		mut := append([]byte(nil), env...)
		mut[len(mut)*3/4] ^= 0x04
		f.Add(mut)
	}
	f.Add([]byte(`{"v":1,"key":"k","kind":"study","value":null}`))
	f.Add([]byte(`{"v":1,"key":"k","kind":"rtm","value":{"Top":[{}]}}`))
	f.Add([]byte(`{"v":2,"key":"k","kind":"vp","value":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// readEnvelope requires the file to be named after its key, so
		// the body is installed under the name its key asks for.
		var probe resultEnvelope
		key := "fuzz"
		if json.Unmarshal(data, &probe) == nil && probe.Key != "" {
			key = probe.Key
		}
		d := newResultDisk(t.TempDir())
		if err := os.WriteFile(d.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d.rehydrate()
		v, err := d.load(key)
		if !d.known[key] {
			return
		}
		if err != nil {
			t.Fatalf("rehydration indexed an envelope that does not load: %v", err)
		}
		if kind, ok := resultKind(v); !ok || kind != probe.Kind {
			t.Fatalf("%q envelope decoded to %T", probe.Kind, v)
		}
		if ok, err := d.save(key, v); !ok || err != nil {
			t.Fatalf("re-saving the loaded value: %v, %v", ok, err)
		}
		again, err := d.load(key)
		if err != nil {
			t.Fatalf("reloading the re-saved value: %v", err)
		}
		if !reflect.DeepEqual(again, v) {
			t.Fatalf("value does not survive a save:\nloaded  %+v\nre-read %+v", v, again)
		}
	})
}
