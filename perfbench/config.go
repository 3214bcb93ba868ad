package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

//go:embed config.json
var configJSON []byte

// benchConfig mirrors config.json: the offered rates, limits, sizes and
// loki-server knobs the benchmark runs with.
type benchConfig struct {
	LimitsMS struct {
		SubmitP99 float64 `json:"submit_p99"`
		ReadP99   float64 `json:"read_p99"`
	} `json:"limits_ms"`
	Sustainable struct {
		MinAckedFrac float64 `json:"min_acked_frac"`
		SearchStep   float64 `json:"search_step"`
		SearchSpan   float64 `json:"search_span"`
	} `json:"sustainable"`
	Topology struct {
		Nodes            int     `json:"nodes"`
		GlobalShards     int     `json:"global_shards"`
		Token            string  `json:"token"`
		BudgetCapEpsilon float64 `json:"budget_cap_epsilon"`
	} `json:"topology"`
	Generator struct {
		SubmitterMaxInflight int `json:"submitter_max_inflight"`
		SubmitterMaxBatch    int `json:"submitter_max_batch"`
		SubmitterMaxWaitMS   int `json:"submitter_max_wait_ms"`
		SubmitterMaxAttempts int `json:"submitter_max_attempts"`
	} `json:"generator"`
	Workloads map[string]*workloadConfig `json:"workloads"`
	Phases    struct {
		FixedRateShare   float64 `json:"fixed_rate_share"`
		FixedRateWindows int     `json:"fixed_rate_windows"`
		SearchProbeShare float64 `json:"search_probe_share"`
		RestartCycles    int     `json:"restart_cycles"`
	} `json:"phases"`
}

// workloadConfig is one workload's traffic mix and sizes.
type workloadConfig struct {
	OfferedRPS       float64 `json:"offered_rps"`
	ReadFrac         float64 `json:"read_frac"`
	SurveysPerWorker int     `json:"surveys_per_worker"`
	PreloadPerSurvey int     `json:"preload_per_survey"`
	TailFrac         float64 `json:"tail_frac"`
	ZipfS            float64 `json:"zipf_s"`
}

func loadConfig() (*benchConfig, error) {
	var cfg benchConfig
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	return &cfg, nil
}
