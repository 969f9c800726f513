package main

import (
	"fmt"
	"math/rand/v2"

	"ccnuma/internal/serve"
)

// defaultSeed is the seed numasim and numasimd use when none is given; the
// golden hashes below are recorded at it.
const defaultSeed = 42

// benchWorkload is one workload of the benchmark. Every workload has a
// simulation phase (the sims below, driven directly through the library)
// and a serving phase (an open loop of what-ifs against an in-process
// numasimd). The two phases share the workload family, so each workload's
// latency figures are for the same simulations its refs/s figure measures.
type benchWorkload struct {
	name string
	// sims are the simulation phase's request templates; the benchmark
	// fills in seeds derived from --seed.
	sims []serve.Request
	// hot are the repeated what-ifs (default seed, served from the cache
	// after warm-up); novel what-ifs are the novel template (Mig/Rep on
	// CC-NUMA) with fresh seeds. Its scale makes it simulate in about 30 ms,
	// so a miss's latency is mostly the simulation rather than the fixed
	// costs and host hiccups around it.
	hot   []serve.Request
	novel serve.Request
}

// missEvery places a novel what-if at every missEvery-th request, so 2% of
// requests miss the cache. The positions are fixed;
// only the seeds vary with --seed. With 2% misses the p99 of all requests
// is the median miss: a simulator change moves it while the p50 stays on
// the hit path, and host interference has to slow half the misses, not
// the slowest few, before it shows.
const missEvery = 50

func workloads() []benchWorkload {
	hotOf := func(family []string, scale float64, policies, configs []string) []serve.Request {
		var out []serve.Request
		for _, w := range family {
			for _, p := range policies {
				for _, c := range configs {
					out = append(out, serve.Request{Workload: w, Policy: p, Config: c, Scale: scale})
				}
			}
		}
		return out
	}
	migrep := func(w string, scale float64) serve.Request {
		return serve.Request{Workload: w, Policy: "migrep", Scale: scale}
	}
	threePolicies := []string{"migrep", "ft", "rr"}
	twoConfigs := []string{"ccnuma", "ccnow"}
	return []benchWorkload{
		{
			name:  "engr-migrep",
			sims:  []serve.Request{migrep("engineering", 0.25)},
			hot:   hotOf([]string{"engineering"}, 0.01, threePolicies, twoConfigs),
			novel: migrep("engineering", 0.01),
		},
		{
			name: "db-migrep",
			sims: []serve.Request{migrep("database", 0.25)},
			// The database is the smallest workload per unit of scale.
			hot:   hotOf([]string{"database"}, 0.03, threePolicies, twoConfigs),
			novel: migrep("database", 0.03),
		},
	}
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// withSeed returns a copy of r with an explicit seed.
func withSeed(r serve.Request, seed uint64) serve.Request {
	r.Seed = &seed
	return r
}

// goldenKey names a request's configuration, seed excluded.
func goldenKey(r serve.Request) string {
	pol, cfg := r.Policy, r.Config
	if pol == "" {
		pol = "migrep"
	}
	if cfg == "" {
		cfg = "ccnuma"
	}
	return fmt.Sprintf("%s/%s/%s/%g", r.Workload, pol, cfg, r.Scale)
}

// goldens are the SHA-256 hashes of serve.ResultJSON for each configuration
// the benchmark simulates, at defaultSeed. Any change to a simulated
// statistic changes a hash and fails the run: a change that only speeds up
// the host must leave every one of them alone.
var goldens = map[string]string{
	"database/ft/ccnow/0.03":         "e3b1be133f546de2a8b3690607f70f0083b85ba963a98f82b62ac6b8d25054d4",
	"database/ft/ccnuma/0.03":        "ea51a75d88aed246b2259a756c17083ae3022adcf130d8023a490331bcd5209b",
	"database/migrep/ccnow/0.03":     "8990c4a61bd32bec286dcef241ac52ca0bd907d8083fb46ad9ca8389d6f763db",
	"database/migrep/ccnuma/0.03":    "5b2a3b002ebd22e8309e8809fcc926692fbcf6d9b5470aa9bf138a57eac462b6",
	"database/migrep/ccnuma/0.25":    "1efcd59ffe4f7d07bcf12b7f661d0e0f474f10f73f89b1cc6508da670915b21a",
	"database/rr/ccnow/0.03":         "95d15d91fdd3d8dadbd8ef99529386769a84fdcdea3fd960711b01ffeee75c18",
	"database/rr/ccnuma/0.03":        "73cd092b13750e047eec4833bdb36c034b7253d05608008096ac76c368e47a89",
	"engineering/ft/ccnow/0.01":      "2276737e0682f75d885d10d3995a93c06f4c14602bbbbeca882202f76212bf0c",
	"engineering/ft/ccnuma/0.01":     "1544075bdb1e8015491bbc9ebc8df2a4281c1c5761c0e1e44fa6d8516e12dc4b",
	"engineering/migrep/ccnow/0.01":  "3d02495912c9b41c2e6a518bddd8f4d48e1caf4021e671f36718702fce34bbb8",
	"engineering/migrep/ccnuma/0.01": "ec560b9387c4dd2d0f3c9d532f48c11da83412664ce6af632b973fcd4c6801ea",
	"engineering/migrep/ccnuma/0.25": "7e720dee1748340b848780d7720f5d42efc2bd7a370e285317439f5777a5d2ea",
	"engineering/rr/ccnow/0.01":      "227d9303cfa055de193aaa956c8096284ba75d71dfbe80b2f0072da609f85adc",
	"engineering/rr/ccnuma/0.01":     "f40c1b7d3e0bd070104529224aac18d7634553a75354768ded0ad127ac1ba005",
}

// seeds derives the run's input seeds from --seed.
type seeds struct{ r *rand.Rand }

func newSeeds(seed uint64) *seeds {
	return &seeds{rand.New(rand.NewPCG(seed, 0x5eed5eed))}
}

// next returns a fresh seed, never defaultSeed (whose runs are the hot set).
func (s *seeds) next() uint64 {
	for {
		if v := s.r.Uint64() >> 1; v != defaultSeed {
			return v
		}
	}
}
