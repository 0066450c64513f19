package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleRepeatsPerSeed(t *testing.T) {
	const rate, span = 4000.0, 2 * time.Second
	a := poissonSchedule(7, rate, span)
	b := poissonSchedule(7, rate, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, rate, span)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != int(rate*span.Seconds()) {
		t.Fatalf("%d arrivals, want %d", len(a), int(rate*span.Seconds()))
	}
	var gaps []float64
	for i, d := range a {
		if d < 0 || d >= span || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [0, %v)", i, d, span)
		}
		if i > 0 {
			gaps = append(gaps, (d - a[i-1]).Seconds())
		}
	}
	// Exponential gaps: mean 1/rate and a coefficient of variation of 1.
	var sum, sq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps))) / mean
	if math.Abs(mean*rate-1) > 0.01 || math.Abs(cv-1) > 0.05 {
		t.Fatalf("gap mean %.3g s (want %.3g), cv %.3f (want 1)", mean, 1/rate, cv)
	}
}

func TestLadderSchedulesRepeat(t *testing.T) {
	ladder := daemonSpecs["fed-open"].ladder
	a := ladderSchedules(3, ladder, 10*time.Second)
	if !reflect.DeepEqual(a, ladderSchedules(3, ladder, 10*time.Second)) {
		t.Fatal("the same seed gave two different ladder schedules")
	}
	if reflect.DeepEqual(a[0], a[1][:len(a[0])]) {
		t.Fatal("two rungs share one arrival sequence")
	}
}
