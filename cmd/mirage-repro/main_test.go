package main

import "testing"

func TestEveryExperimentPasses(t *testing.T) {
	for _, e := range experiments {
		failures, err := run(e.name)
		if err != nil || failures != 0 {
			t.Errorf("%s: %d failed check(s), err %v", e.name, failures, err)
		}
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := run("bogus"); err == nil {
		t.Fatal(`run("bogus") ran nothing and reported no error`)
	}
}
