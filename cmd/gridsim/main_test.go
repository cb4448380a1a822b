package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ops"
)

// valid is a baseline rawOptions that resolves cleanly; cases mutate one
// field at a time.
func valid() rawOptions {
	return rawOptions{
		peers:     "64",
		method:    "qgrams",
		churnMode: "crash",
		clients:   1,
	}
}

func TestResolveOptions(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*rawOptions)
		wantErr string // substring; "" means resolve must succeed
		check   func(t *testing.T, o options)
	}{
		{
			name:   "defaults",
			mutate: func(r *rawOptions) {},
			check: func(t *testing.T, o options) {
				if o.method != ops.MethodQGrams || o.mode != core.RuntimeDirect {
					t.Errorf("resolved %+v, want qgrams/direct", o)
				}
			},
		},
		{
			name:    "unknown method lists accepted values",
			mutate:  func(r *rawOptions) { r.method = "trigrams" },
			wantErr: `unknown method "trigrams" (want qgrams, qsamples or strings)`,
		},
		{
			name:    "unknown churn mode",
			mutate:  func(r *rawOptions) { r.churnMode = "flap" },
			wantErr: `unknown churn mode "flap" (want crash or membership)`,
		},
		{
			name:    "negative churn rate",
			mutate:  func(r *rawOptions) { r.churnRate = -1 },
			wantErr: "negative churn rate",
		},
		{
			name:    "exec fanout lists the remaining modes",
			mutate:  func(r *rawOptions) { r.exec = `fanout` },
			wantErr: `(want direct or actor)`,
		},
		{
			name:    "clients below one",
			mutate:  func(r *rawOptions) { r.clients = 0 },
			wantErr: "invalid -clients 0",
		},
		{
			name:    "multiple clients need actor mode",
			mutate:  func(r *rawOptions) { r.clients = 4 },
			wantErr: "-clients 4 needs -exec actor",
		},
		{
			name: "multiple clients on actor mode",
			mutate: func(r *rawOptions) {
				r.clients = 4
				r.exec = "actor"
			},
		},
		{
			name:    "metrics-out needs metrics-addr",
			mutate:  func(r *rawOptions) { r.metricsOut = "final.prom" },
			wantErr: "-metrics-out needs -metrics-addr",
		},
		{
			name:    "bad peer list",
			mutate:  func(r *rawOptions) { r.peers = "64,oops" },
			wantErr: `invalid count "oops"`,
		},
		{
			name:   "cache on",
			mutate: func(r *rawOptions) { r.cache = "on" },
			check: func(t *testing.T, o options) {
				if !o.cache {
					t.Error("cache not enabled")
				}
			},
		},
		{
			name:   "cache off is the default",
			mutate: func(r *rawOptions) { r.cache = "off" },
			check: func(t *testing.T, o options) {
				if o.cache {
					t.Error("cache enabled by -cache off")
				}
			},
		},
		{
			name:    "unknown cache setting lists accepted values",
			mutate:  func(r *rawOptions) { r.cache = "lru" },
			wantErr: `unknown cache setting "lru" (want on or off)`,
		},
		{
			name: "poisson arrivals on actor mode",
			mutate: func(r *rawOptions) {
				r.arrival = "poisson"
				r.exec = "actor"
				r.rate = 25
				r.zipf = 1.1
				r.arrivals = 64
			},
			check: func(t *testing.T, o options) {
				if !o.openLoop {
					t.Error("openLoop not set")
				}
			},
		},
		{
			name:    "unknown arrival process lists accepted values",
			mutate:  func(r *rawOptions) { r.arrival = "burst" },
			wantErr: `unknown arrival process "burst" (want closed or poisson)`,
		},
		{
			name: "poisson needs actor mode",
			mutate: func(r *rawOptions) {
				r.arrival = "poisson"
				r.rate = 25
			},
			wantErr: "-arrival poisson needs -exec actor",
		},
		{
			name: "poisson needs a rate",
			mutate: func(r *rawOptions) {
				r.arrival = "poisson"
				r.exec = "actor"
			},
			wantErr: "-arrival poisson needs -rate",
		},
		{
			name: "poisson conflicts with churn",
			mutate: func(r *rawOptions) {
				r.arrival = "poisson"
				r.exec = "actor"
				r.rate = 25
				r.churnRate = 1
			},
			wantErr: "-arrival poisson conflicts with -churn-rate",
		},
		{
			name: "poisson conflicts with clients",
			mutate: func(r *rawOptions) {
				r.arrival = "poisson"
				r.exec = "actor"
				r.rate = 25
				r.clients = 4
			},
			wantErr: "-arrival poisson conflicts with -clients",
		},
		{
			name:    "rate needs poisson",
			mutate:  func(r *rawOptions) { r.rate = 25 },
			wantErr: "-rate needs -arrival poisson",
		},
		{
			name:    "zipf needs poisson",
			mutate:  func(r *rawOptions) { r.zipf = 1.5 },
			wantErr: "-zipf needs -arrival poisson",
		},
		{
			name:    "arrivals needs poisson",
			mutate:  func(r *rawOptions) { r.arrivals = 32 },
			wantErr: "-arrivals needs -arrival poisson",
		},
		{
			name: "zipf exponent must exceed one",
			mutate: func(r *rawOptions) {
				r.arrival = "poisson"
				r.exec = "actor"
				r.rate = 25
				r.zipf = 0.5
			},
			wantErr: "invalid -zipf 0.5",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.mutate(&r)
			o, err := r.resolve()
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("resolve() = %+v, want error containing %q", o, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("resolve() error = %q, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("resolve() error: %v", err)
			}
			if tc.check != nil {
				tc.check(t, o)
			}
		})
	}
}
