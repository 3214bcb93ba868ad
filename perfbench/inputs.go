package main

import (
	"context"
	"fmt"

	"loki/internal/budget"
	"loki/internal/client"
	"loki/internal/core"
	"loki/internal/population"
	"loki/internal/rng"
	"loki/internal/survey"
)

// registrySize is the synthetic population the respondents are drawn
// from. Smaller than the experiments' metro-scale registry: the
// benchmark needs distinct people with realistic behaviour, not
// de-anonymization statistics, and generation counts in set-up.
const registrySize = 20000

// ingestSurveys are the eight surveys the ingest workload's workers all
// answer: the paper's §2 profiling surveys, the health and awareness
// surveys, and three lecturer-rating surveys of different sizes.
func ingestSurveys() []*survey.Survey {
	out := append(survey.ProfilingSurveys(), survey.Health(), survey.Awareness())
	for i, n := range []int{4, 8, 13} {
		sv := survey.Lecturers(lecturerNames(n))
		sv.ID = fmt.Sprintf("lecturers-%d", i)
		out = append(out, sv)
	}
	return out
}

// dashboardSurveys are 64 surveys cycling through four shapes: a
// 2-question choice survey, the 3-question health survey, one of the
// profiling surveys, and a lecturer survey whose size grows from 2 to
// 30 questions across the set.
func dashboardSurveys() []*survey.Survey {
	out := make([]*survey.Survey, 64)
	for i := range out {
		var sv *survey.Survey
		switch i % 4 {
		case 0:
			sv = survey.Awareness()
		case 1:
			sv = survey.Health()
		case 2:
			sv = survey.ProfilingSurveys()[(i/4)%3]
		default:
			sv = survey.Lecturers(lecturerNames(2 + (i/4)*28/15))
		}
		sv.ID = fmt.Sprintf("dash-%02d", i)
		out[i] = sv
	}
	return out
}

func lecturerNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("Lecturer %02d", i)
	}
	return names
}

// inputs is everything a run sends, built before any timing starts.
type inputs struct {
	surveys []*survey.Survey
	byID    map[string]*survey.Survey
	// preload and tail are written straight into the nodes during
	// set-up (preload, checkpoint flush, then tail); submits feed the
	// open-loop generator in order.
	preload []*survey.Response
	tail    []*survey.Response
	submits []*survey.Response
	// readZipf picks the survey of each aggregate read (nil: uniform).
	readZipf *rng.Zipfian
	// levels counts submits per privacy level, for the report.
	levels [core.NumLevels]int
}

// buildInputs generates a workload's responses from the population
// behaviour models and runs each through client.Prepare, which applies
// real at-source noise with core.Obfuscator at the person's preferred
// privacy level (the paper's e6 take-up mix). The same seed gives the
// same inputs: the population, the answers and the noise all come from
// seeded streams, consumed in a fixed order.
func buildInputs(ctx context.Context, cl *client.Client, wl *workloadConfig, surveys []*survey.Survey, submits int, seed uint64) (*inputs, error) {
	r := rng.New(seed)
	pop, err := population.Generate(populationConfig(), r.Split())
	if err != nil {
		return nil, err
	}
	in := &inputs{surveys: surveys, byID: make(map[string]*survey.Survey, len(surveys))}
	for _, sv := range surveys {
		in.byID[sv.ID] = sv
	}
	var zipf *rng.Zipfian
	if wl.ZipfS > 0 {
		zipf = rng.NewZipf(len(surveys), wl.ZipfS)
		in.readZipf = zipf
	}
	ar := r.Split()
	person := 0
	prepare := func(prefix string, worker int, sv *survey.Survey) (*survey.Response, core.Level, error) {
		p := &pop.Persons[worker%pop.Size()]
		raw, err := population.Answers(p, sv, ar)
		if err != nil {
			return nil, 0, err
		}
		lvl := core.Level(p.PrivacyPref)
		resp, err := cl.Prepare(ctx, sv, fmt.Sprintf("%s-%06d", prefix, worker), raw, lvl)
		return resp, lvl, err
	}
	// Preloaded responses come from their own workers, one survey each:
	// they bypass the frontend, so they carry no budget charge.
	for _, sv := range surveys {
		for k := 0; k < wl.PreloadPerSurvey; k++ {
			resp, _, err := prepare("pre", person, sv)
			if err != nil {
				return nil, err
			}
			in.preload = append(in.preload, resp)
			person++
		}
	}
	tailN := int(float64(len(in.preload)) * wl.TailFrac)
	for k := 0; k < tailN; k++ {
		resp, _, err := prepare("tail", person, surveys[k%len(surveys)])
		if err != nil {
			return nil, err
		}
		in.tail = append(in.tail, resp)
		person++
	}
	// Submitting workers each answer SurveysPerWorker distinct surveys —
	// the cross-survey linkage setting — drawn by the workload's survey
	// popularity (Zipf) or, without it, all of them in a shuffled order.
	pick := r.Split()
	for worker := 0; len(in.submits) < submits; worker++ {
		seen := make(map[int]bool, wl.SurveysPerWorker)
		order := pick.Perm(len(surveys))
		for j := 0; j < wl.SurveysPerWorker && len(in.submits) < submits; j++ {
			s := order[j]
			if zipf != nil {
				for s = zipf.Draw(pick); seen[s]; s = zipf.Draw(pick) {
				}
			}
			seen[s] = true
			resp, lvl, err := prepare("w", person+worker, surveys[s])
			if err != nil {
				return nil, err
			}
			in.levels[lvl]++
			in.submits = append(in.submits, resp)
		}
	}
	return in, nil
}

func populationConfig() population.Config {
	cfg := population.DefaultConfig()
	cfg.RegistrySize = registrySize
	return cfg
}

// maxWorkerEpsilon is the largest ε any submitting worker can spend: the
// costliest SurveysPerWorker surveys, all answered at the least private
// noisy level. The budget cap must cover it, or the benchmark would
// count valid submits as refused.
func maxWorkerEpsilon(obf *core.Obfuscator, surveys []*survey.Survey, perWorker int, delta float64) (float64, error) {
	rhos := make([]float64, 0, len(surveys))
	for _, sv := range surveys {
		rho, _, err := obf.ResponseRho(sv, core.Low)
		if err != nil {
			return 0, err
		}
		rhos = append(rhos, rho)
	}
	// Selection of the perWorker largest by repeated max: the lists are
	// tiny.
	total := 0.0
	for k := 0; k < perWorker && len(rhos) > 0; k++ {
		best := 0
		for i, v := range rhos {
			if v > rhos[best] {
				best = i
			}
		}
		total += rhos[best]
		rhos = append(rhos[:best], rhos[best+1:]...)
	}
	return budget.Config{CapEpsilon: 1, Delta: delta}.Epsilon(total), nil
}
