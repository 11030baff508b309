package experiments

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runTable runs one experiment function to completion under a background
// ctx, failing the test on error.
func runTable(t *testing.T, run func(context.Context, Scale) (*Table, error), sc Scale) *Table {
	t.Helper()
	tb, err := run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// parsePct converts a "97.9%" cell back to a ratio.
func parsePct(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q: %v", cell, err)
	}
	return v / 100
}

func parseF(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(cell, "+"), "%"), 64)
	if err != nil {
		t.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "x", Headers: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("n=%d", 3)
	s := tb.String()
	for _, want := range []string{"=== x ===", "a", "bb", "1", "2", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := []string{"Figure2", "Table3", "Figure5", "Figure6", "Figure7",
		"Figure8", "Figure9", "Figure10", "Traffic", "Prefetch", "Defenses",
		"AblationWindowShape", "AblationFillQueue", "AblationMissQueue",
		"AblationDropOnHit", "AblationL2RandomFill", "Hierarchy3",
		"ConstantTime",
		"InformingDoS", "AdaptiveWindow", "Equation4", "MissQueueSecurity",
		"OccupancyMatrix", "PolicyMatrix"}
	if len(All()) != len(names) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(names))
	}
	for _, n := range names {
		if _, ok := ByName(n); !ok {
			t.Errorf("experiment %s not registered", n)
		}
	}
	if _, ok := ByName("figure5"); !ok {
		t.Error("lookup is not case-insensitive")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name found")
	}
}

func TestFigure5Shape(t *testing.T) {
	tb := runTable(t, Figure5, QuickScale())
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Capacity decreases monotonically down each column, and the larger-M
	// columns sit below the smaller-M ones (smaller boundary effect).
	for col := 1; col <= 4; col++ {
		prev := 2.0
		for _, row := range tb.Rows {
			v := parseF(t, row[col])
			if v > prev {
				t.Errorf("column %d not monotone: %v after %v", col, v, prev)
			}
			prev = v
		}
	}
	for _, row := range tb.Rows {
		if parseF(t, row[4]) > parseF(t, row[1]) {
			t.Errorf("M=128 leaks more than M=8 at window/M=%s", row[0])
		}
	}
	// Window = 2M reduces capacity by >10x (paper's headline claim).
	if v := parseF(t, tb.Rows[3][2]); v > 0.1 {
		t.Errorf("M=16 at window 2M: normalized capacity %v > 0.1", v)
	}
}

func TestFigure6Shape(t *testing.T) {
	tb := runTable(t, Figure6, QuickScale())
	if len(tb.Rows) != 9 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		preload := parsePct(t, row[2])
		disable := parsePct(t, row[3])
		rf := parsePct(t, row[4])
		// Disable-cache is by far the worst defense everywhere.
		if disable > 0.8 {
			t.Errorf("%s: disable-cache at %v, want heavy degradation", row[0], disable)
		}
		if disable > rf || disable > preload {
			t.Errorf("%s: disable-cache (%v) not the slowest (preload %v, rf %v)",
				row[0], disable, preload, rf)
		}
		// Random fill stays within a modest hit of baseline.
		if rf < 0.80 || rf > 1.1 {
			t.Errorf("%s: random fill at %v, want near baseline", row[0], rf)
		}
	}
	// Random fill on the 32KB 4-way cache is essentially free.
	if rf := parsePct(t, tb.Rows[8][4]); rf < 0.95 {
		t.Errorf("32KB 4-way random fill at %v, want >= 0.95", rf)
	}
	// Random fill hurts the direct-mapped 8KB shape more than 4-way 32KB.
	if parsePct(t, tb.Rows[0][4]) > parsePct(t, tb.Rows[8][4]) {
		t.Error("random fill on 8KB DM not worse than on 32KB 4-way")
	}
}

func TestFigure7Shape(t *testing.T) {
	tb := runTable(t, Figure7, QuickScale())
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Window size 1 is the baseline (100%) everywhere.
	for col := 1; col <= 4; col++ {
		if v := parsePct(t, tb.Rows[0][col]); v != 1 {
			t.Errorf("col %d window 1 = %v, want 1", col, v)
		}
	}
	// The 32KB 4-way SA cache is insensitive to the window (paper claim).
	for _, row := range tb.Rows {
		if v := parsePct(t, row[2]); v < 0.9 {
			t.Errorf("32KB 4-way SA at window %s: %v, want >= 0.9", row[0], v)
		}
	}
	// Newcache at 8KB with window 32 shows the worst degradation of the
	// Newcache columns (paper: max degradation there).
	last := parsePct(t, tb.Rows[5][3])
	if last > 0.97 {
		t.Errorf("8KB Newcache at window 32 = %v, want visible degradation", last)
	}
}

func TestFigure9Shape(t *testing.T) {
	tb := runTable(t, Figure9, QuickScale())
	if len(tb.Rows) != 8 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	byName := map[string][]string{}
	for _, row := range tb.Rows {
		byName[row[0]] = row
	}
	// Headers: benchmark, d=-16,-8,-4,-2,-1,+1,+2,+4,+8,+16 (indices 1..10).
	// lbm and libquantum: strong forward locality at d=+4 (index 7).
	for _, name := range []string{"lbm", "libquantum"} {
		if v := parseF(t, byName[name][7]); v < 0.5 {
			t.Errorf("%s Eff(+4) = %v, want >= 0.5", name, v)
		}
	}
	// sjeng and astar: no useful locality anywhere.
	for _, name := range []string{"sjeng", "astar"} {
		if v := parseF(t, byName[name][7]); v > 0.3 {
			t.Errorf("%s Eff(+4) = %v, want < 0.3", name, v)
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	tb := runTable(t, Figure10, QuickScale())
	if len(tb.Rows) != 16 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	rows := map[string]map[string][]string{}
	for _, row := range tb.Rows {
		if rows[row[0]] == nil {
			rows[row[0]] = map[string][]string{}
		}
		rows[row[0]][row[1]] = row
	}
	// Column indices: 2=[0,0] ... 6=[0,15] 7=[0,31].
	const base, fwd15 = 2, 6

	// Streaming benchmarks: forward windows cut MPKI and raise IPC.
	for _, name := range []string{"lbm", "libquantum"} {
		mpki := rows[name]["MPKI"]
		ipc := rows[name]["IPC"]
		if parseF(t, mpki[fwd15]) >= parseF(t, mpki[base]) {
			t.Errorf("%s: MPKI did not drop under [0,15]", name)
		}
		if parsePct(t, ipc[fwd15]) <= 1.05 {
			t.Errorf("%s: IPC %v under [0,15], want clear gain", name, ipc[fwd15])
		}
	}
	// libquantum's gain is the largest in the table (the paper's star).
	lqGain := parsePct(t, rows["libquantum"]["IPC"][fwd15])
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == "libquantum" {
			continue
		}
		if g := parsePct(t, rows[name]["IPC"][fwd15]); g > lqGain {
			t.Errorf("%s gains more than libquantum at [0,15]: %v > %v", name, g, lqGain)
		}
	}
	// Narrow-locality benchmarks degrade under random fill.
	for _, name := range []string{"sjeng", "astar", "h264ref", "bzip2"} {
		if v := parsePct(t, rows[name]["IPC"][fwd15]); v >= 1.0 {
			t.Errorf("%s: IPC %v under [0,15], want degradation", name, v)
		}
	}
	// Forward windows beat bidirectional ones for the streaming pair
	// (column 6 = [0,15] vs column 11 = [-16,15]... index: headers are
	// benchmark, metric, then 11 windows; [-16,15] is the last column).
	last := len(tb.Headers) - 1
	for _, name := range []string{"lbm", "libquantum"} {
		if parsePct(t, rows[name]["IPC"][fwd15]) < parsePct(t, rows[name]["IPC"][last]) {
			t.Errorf("%s: bidirectional window beats forward window", name)
		}
	}
}

func TestTrafficShape(t *testing.T) {
	tb := runTable(t, Traffic, QuickScale())
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		l2 := parseF(t, row[1])
		memT := parseF(t, row[2])
		// Random fill adds L2 traffic; memory traffic grows less than
		// L2 traffic (most fills are eventually useful).
		if l2 <= 0 {
			t.Errorf("%s: L2 traffic %v%%, want an increase", row[0], l2)
		}
		if memT > 25 {
			t.Errorf("%s: memory traffic +%v%%, want modest growth", row[0], memT)
		}
	}
}

func TestPrefetchComparisonShape(t *testing.T) {
	tb := runTable(t, PrefetchComparison, QuickScale())
	for _, row := range tb.Rows {
		tagged := parsePct(t, row[2])
		rf := parsePct(t, row[3])
		// The paper's Section VII claim: random fill beats the tagged
		// next-line prefetcher on both streaming benchmarks.
		if rf <= tagged {
			t.Errorf("%s: random fill (%v) does not beat tagged prefetch (%v)",
				row[0], rf, tagged)
		}
		if rf <= 1.05 {
			t.Errorf("%s: random fill gain %v, want > 1.05", row[0], rf)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("SMT sweep is slow")
	}
	tb := runTable(t, Figure8, QuickScale())
	// 2 geometries x (8 benchmarks + average) rows.
	if len(tb.Rows) != 18 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] != "average" {
			continue
		}
		preload := parsePct(t, row[3])
		rf := parsePct(t, row[4])
		// Random fill must not hurt co-running programs on average;
		// PLcache+preload must hurt them more than random fill does.
		if rf < 0.95 {
			t.Errorf("%s: random fill average %v, want >= 0.95", row[0], rf)
		}
		if preload >= rf {
			t.Errorf("%s: preload average %v not below random fill %v", row[0], preload, rf)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing chart collection is slow")
	}
	tb := runTable(t, Figure2, QuickScale())
	if len(tb.Rows) != 18 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// The true XOR row must show a below-average time (the dip of
	// Figure 2). Its cell is the last row.
	truth := tb.Rows[len(tb.Rows)-1]
	v, err := strconv.ParseFloat(strings.TrimPrefix(truth[1], "+"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v >= 0 {
		t.Errorf("true-XOR mean deviation %v, want negative", v)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("attack search sweep is slow")
	}
	sc := QuickScale()
	sc.MonteCarloTrials = 20000
	sc.AttackMaxSamples = 1 << 13 // keep the 12-cell sweep fast
	sc.AttackBatch = 1 << 12
	tb := runTable(t, Table3, sc)
	if len(tb.Rows) != 12 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// P1-P2 decays monotonically (within noise) down each cache block.
	for block := 0; block < 2; block++ {
		prev := 1.0
		for i := 0; i < 6; i++ {
			row := tb.Rows[block*6+i]
			v, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v > prev+0.02 {
				t.Errorf("%s window %s: P1-P2 %v rose above %v", row[0], row[1], v, prev)
			}
			prev = v
		}
		// Window 32 closes the channel.
		last, _ := strconv.ParseFloat(tb.Rows[block*6+5][2], 64)
		if last > 0.03 {
			t.Errorf("block %d window 32: P1-P2 = %v, want ~0", block, last)
		}
	}
}

func TestDefenseMatrixShape(t *testing.T) {
	tb := runTable(t, DefenseMatrix, QuickScale())
	if len(tb.Rows) != 7 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(name string) []string {
		for _, row := range tb.Rows {
			if row[0] == name {
				return row
			}
		}
		t.Fatalf("row %q missing", name)
		return nil
	}
	// The Section VIII pattern, cell by cell.
	sa := get("SA (demand fetch)")
	if parsePct(t, sa[1]) < 0.95 || parsePct(t, sa[2]) < 0.95 {
		t.Errorf("SA must be broken by both attacks: %v", sa)
	}
	for _, name := range []string{"NoMo", "RPcache", "Newcache"} {
		row := get(name)
		if parsePct(t, row[1]) > 0.2 {
			t.Errorf("%s: prime-probe accuracy %s, want ≈ chance", name, row[1])
		}
		if parsePct(t, row[2]) < 0.95 {
			t.Errorf("%s: flush-reload accuracy %s, want 1 (reuse attacks unaffected)", name, row[2])
		}
	}
	rf := get("RandomFill+SA")
	if parsePct(t, rf[2]) > 0.1 {
		t.Errorf("RandomFill+SA: flush-reload accuracy %s, want ≈ 1/32", rf[2])
	}
	if parsePct(t, rf[1]) < parsePct(t, get("RandomFill+RPcache")[1]) {
		// Random fill alone must leak at least as much set contention
		// as the composed design.
		t.Log("note: composed design leaked more contention than RF alone (noise)")
	}
	for _, name := range []string{"RandomFill+RPcache", "RandomFill+Newcache"} {
		row := get(name)
		if parsePct(t, row[1]) > 0.2 || parsePct(t, row[2]) > 0.1 {
			t.Errorf("%s: composition must close both channels: %v", name, row)
		}
	}
}
