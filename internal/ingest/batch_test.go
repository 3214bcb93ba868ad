package ingest

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"loki/internal/blockio"
	"loki/internal/store"
	"loki/internal/survey"
)

// interleavedBatch is n records spread round-robin over the given
// surveys, so every shard's group is scattered through the batch.
func interleavedBatch(surveys, n int) []survey.Response {
	rs := make([]survey.Response, n)
	for k := range rs {
		rs[k] = *benchResponse(benchSurvey(k%surveys).ID, fmt.Sprintf("w%04d", k))
	}
	return rs
}

// putSurveys publishes benchSurvey(0..n-1) into st.
func putSurveys(t testing.TB, st store.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := st.PutSurvey(benchSurvey(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// scanWorkers lists one survey's stream as "seq:worker" entries.
func scanWorkers(t *testing.T, st store.Store, surveyID string) []string {
	t.Helper()
	var out []string
	err := st.ScanResponses(surveyID, 0, func(seq uint64, r *survey.Response) error {
		out = append(out, fmt.Sprintf("%d:%s", seq, r.WorkerID))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// groupCommits is how many commits a single caller's batch costs on s:
// one per MaxBatch-sized chunk of each shard's group.
func groupCommits(s *Sharded, rs []survey.Response) int64 {
	per := make(map[int]int)
	for i := range rs {
		per[s.shardFor(rs[i].SurveyID).id]++
	}
	var n int64
	for _, g := range per {
		n += int64((g + s.cfg.MaxBatch - 1) / s.cfg.MaxBatch)
	}
	return n
}

// TestBatchConformance: store.Mem, store.File and ingest.Sharded (both
// codecs, and with MaxBatch below a shard's group) take the same
// interleaved batch and return the same counts and per-survey scan
// order; the ingest store commits once per shard chunk, not once per
// record, and replays the same seqs on reopen.
func TestBatchConformance(t *testing.T) {
	const surveys, n = 8, 1024
	rs := interleavedBatch(surveys, n)

	mem := store.NewMem()
	putSurveys(t, mem, surveys)
	want, err := mem.AppendResponses(rs)
	if err != nil {
		t.Fatal(err)
	}
	wantScan := make([][]string, surveys)
	for i := range wantScan {
		wantScan[i] = scanWorkers(t, mem, benchSurvey(i).ID)
	}
	check := func(name string, st store.Store, counts []int) {
		t.Helper()
		if fmt.Sprint(counts) != fmt.Sprint(want) {
			t.Fatalf("%s: counts differ from store.Mem", name)
		}
		for i := range wantScan {
			if got := scanWorkers(t, st, benchSurvey(i).ID); fmt.Sprint(got) != fmt.Sprint(wantScan[i]) {
				t.Fatalf("%s: survey %d scan differs from store.Mem", name, i)
			}
		}
	}

	fs, err := store.OpenFile(filepath.Join(t.TempDir(), "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	putSurveys(t, fs, surveys)
	counts, err := fs.AppendResponses(rs)
	if err != nil {
		t.Fatal(err)
	}
	check("store.File", fs, counts)

	for _, cfg := range []Config{
		{Shards: 8, Codec: blockio.CodecBinary},
		{Shards: 8, Codec: blockio.CodecJSON},
		{Shards: 8, Codec: blockio.CodecBinary, MaxBatch: 50},
	} {
		name := fmt.Sprintf("ingest %s MaxBatch=%d", cfg.Codec, cfg.MaxBatch)
		dir := t.TempDir()
		s := openTest(t, dir, cfg)
		putSurveys(t, s, surveys)

		// A batch with one invalid record is refused whole.
		bad := append(append([]survey.Response(nil), rs[:10]...), *benchResponse("no-such-survey", "x"))
		if got, err := s.AppendResponses(bad); !errors.Is(err, store.ErrNotFound) || len(got) != 0 {
			t.Fatalf("%s: invalid batch = %v, %v; want nothing, ErrNotFound", name, got, err)
		}
		if st := s.Stats(); st.Appends != 0 || st.Commits != 0 {
			t.Fatalf("%s: invalid batch wrote %+v", name, st)
		}

		counts, err := s.AppendResponses(rs)
		if err != nil {
			t.Fatal(err)
		}
		check(name, s, counts)
		st := s.Stats()
		if wantCommits := groupCommits(s, rs); st.Appends != n || st.Commits != wantCommits {
			t.Fatalf("%s: stats %+v, want %d appends in %d commits", name, st, n, wantCommits)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = openTest(t, dir, cfg)
		check(name+" reopened", s, counts)
		s.Close()
	}
}

// TestBatchConcurrentSeqs: concurrent AppendResponses and
// AppendResponse calls on overlapping surveys (and shards) number each
// survey's records exactly 1..n, and the seq a call got is where a
// scan finds its record. MaxBatch is below the batch size, so groups
// split and full batches hold requests over.
func TestBatchConcurrentSeqs(t *testing.T) {
	const surveys, batchers, singles, rounds = 4, 4, 4, 20
	s := openTest(t, t.TempDir(), Config{Shards: 2, MaxBatch: 8})
	defer s.Close()
	putSurveys(t, s, surveys)

	var mu sync.Mutex
	got := make(map[string]map[int]string) // survey → seq → worker
	for i := 0; i < surveys; i++ {
		got[benchSurvey(i).ID] = make(map[int]string)
	}
	record := func(rs []survey.Response, counts []int) error {
		mu.Lock()
		defer mu.Unlock()
		for i, c := range counts {
			m := got[rs[i].SurveyID]
			if prev, dup := m[c]; dup {
				return fmt.Errorf("survey %s seq %d given to %s and %s", rs[i].SurveyID, c, prev, rs[i].WorkerID)
			}
			m[c] = rs[i].WorkerID
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, batchers+singles)
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				rs := make([]survey.Response, 13)
				for i := range rs {
					rs[i] = *benchResponse(benchSurvey((g+i)%surveys).ID, fmt.Sprintf("b%d-%d-%d", g, k, i))
				}
				counts, err := s.AppendResponses(rs)
				if err == nil {
					err = record(rs, counts)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < singles; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				r := benchResponse(benchSurvey(k%surveys).ID, fmt.Sprintf("s%d-%d", g, k))
				if err := s.AppendResponse(r); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for id, bySeq := range got {
		n := 0
		err := s.ScanResponses(id, 0, func(seq uint64, r *survey.Response) error {
			n++
			if seq != uint64(n) {
				return fmt.Errorf("scan position %d has seq %d", n, seq)
			}
			if w, ok := bySeq[n]; ok && w != r.WorkerID {
				return fmt.Errorf("seq %d: batch was told %s, scan holds %s", n, w, r.WorkerID)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("survey %s: %v", id, err)
		}
		for seq := range bySeq {
			if seq < 1 || seq > n {
				t.Fatalf("survey %s: seq %d outside 1..%d", id, seq, n)
			}
		}
	}
	total := 0
	for i := 0; i < surveys; i++ {
		total += s.ResponseCount(benchSurvey(i).ID)
	}
	if want := batchers*rounds*13 + singles*rounds; total != want {
		t.Fatalf("stored %d records, want %d", total, want)
	}
}

// surveysOnShards returns one benchSurvey index placed on each of two
// different shards of s.
func surveysOnShards(t *testing.T, s *Sharded) (a, b int) {
	t.Helper()
	a = 0
	for b = 1; b < 64; b++ {
		if s.shardFor(benchSurvey(b).ID) != s.shardFor(benchSurvey(a).ID) {
			return a, b
		}
	}
	t.Fatal("no two bench surveys on different shards")
	return 0, 0
}

// TestBatchFailStop: a batch that spans a failed shard and a healthy
// one returns its durable prefix with the error, the store refuses
// every later append, and a reopen holds every acknowledged record.
func TestBatchFailStop(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2}
	s := openTest(t, dir, cfg)
	good, bad := surveysOnShards(t, s)
	putSurveys(t, s, max(good, bad)+1)
	goodID, badID := benchSurvey(good).ID, benchSurvey(bad).ID
	if _, err := s.AppendResponses([]survey.Response{*benchResponse(goodID, "g0"), *benchResponse(badID, "b0")}); err != nil {
		t.Fatal(err)
	}

	// Sabotage the bad shard's active segment file descriptor.
	sh := s.shardFor(badID)
	if err := sh.seg.file().Close(); err != nil {
		t.Fatal(err)
	}
	rs := []survey.Response{
		*benchResponse(goodID, "g1"),
		*benchResponse(goodID, "g2"),
		*benchResponse(badID, "b1"),
		*benchResponse(goodID, "g3"),
	}
	counts, err := s.AppendResponses(rs)
	if err == nil {
		t.Fatal("batch spanning a failed shard succeeded")
	}
	if fmt.Sprint(counts) != "[2 3]" {
		t.Fatalf("durable prefix counts = %v, want [2 3]", counts)
	}
	if err := s.AppendResponse(benchResponse(goodID, "g4")); err == nil {
		t.Fatal("append to a healthy shard of a failed store succeeded")
	}
	if _, err := s.AppendResponses([]survey.Response{*benchResponse(goodID, "g5")}); err == nil {
		t.Fatal("batch append to a failed store succeeded")
	}
	sh.seg = nil // keep Close from double-closing the sabotaged fd
	s.Close()

	s = openTest(t, dir, cfg)
	defer s.Close()
	// Every acknowledged record is at its seq; g3, past the prefix, may
	// or may not have survived.
	if got := scanWorkers(t, s, goodID); len(got) < 3 || fmt.Sprint(got[:3]) != "[1:g0 2:g1 3:g2]" {
		t.Fatalf("reopened good survey = %v", got)
	}
	if got := scanWorkers(t, s, badID); fmt.Sprint(got) != "[1:b0]" {
		t.Fatalf("reopened bad survey = %v", got)
	}
}

// BenchmarkShardedAppendResponses appends interleaved 8-survey batches
// to an 8-shard store and reports the achieved group-commit size.
func BenchmarkShardedAppendResponses(b *testing.B) {
	for _, n := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", n), func(b *testing.B) {
			s, err := Open(b.TempDir(), Config{Shards: 8})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			putSurveys(b, s, 8)
			rs := interleavedBatch(8, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.AppendResponses(rs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.Appends)/float64(st.Commits), "records/commit")
			b.ReportMetric(float64(st.Appends)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
