package engine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sqlancerpp/internal/coverage"
	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/sqlast"
	"sqlancerpp/internal/sqlparse"
)

// TestJrowArenaChunks pins the arena's growth: chunks start at 32 slots
// and double up to 1,024, and a row wider than the chunk gets its own.
func TestJrowArenaChunks(t *testing.T) {
	var a jrowArena
	var sizes []int
	left := cap(a.buf)
	for i := 0; i < 3000; i++ {
		a.row(nil, nil)
		if c := cap(a.buf); c > left {
			sizes = append(sizes, c+1) // a fresh chunk, less the row just cut
		}
		left = cap(a.buf)
	}
	want := []int{32, 64, 128, 256, 512, 1024, 1024}
	if !slices.Equal(sizes, want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
	wide := make(jrow, 2*jrowChunkMax)
	if r := a.row(wide, nil); len(r) != len(wide)+1 || cap(r) != len(r) {
		t.Fatalf("wide row: len %d cap %d, want %d", len(r), cap(r), len(wide)+1)
	}
}

// mod4 is n left keys cycling 0..3.
func mod4(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % 4
	}
	return out
}

// arenaJoinCase builds two or three tables whose join yields exactly n
// rows for one join kind. l(c0, c1) and r(k0, k1) hold the given keys in
// table order; m is a one-row table for the three-relation comma join.
func arenaJoinCase(kind string, n int) (sql string, lk, rk []int) {
	switch kind {
	case "comma":
		return "SELECT * FROM l, r", mod4(n), []int{0}
	case "comma3":
		return "SELECT * FROM l, r, m", mod4(n), []int{0}
	case "inner", "probe":
		// Every left key matches exactly one right key.
		return "SELECT * FROM l INNER JOIN r ON l.c0 = r.k0", mod4(n), []int{0, 1, 2, 3}
	case "left":
		// Keys 2 and 3 have no partner and are NULL-extended.
		return "SELECT * FROM l LEFT JOIN r ON l.c0 = r.k0", mod4(n), []int{0, 1}
	case "right":
		return "SELECT * FROM l RIGHT JOIN r ON l.c0 = r.k0", []int{0, 1}, mod4(n)
	case "full":
		// Every left row yields one row; right key 9 never matches.
		sql = "SELECT * FROM l FULL JOIN r ON l.c0 = r.k0"
		switch n {
		case 0:
			return sql, nil, nil
		case 1:
			return sql, nil, []int{9}
		}
		return sql, mod4(n - 1), []int{0, 9}
	}
	panic("unknown join kind " + kind)
}

func insertKeys(t *testing.T, db *DB, table, tag string, keys []int) {
	t.Helper()
	for lo := 0; lo < len(keys); lo += 500 {
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
		for i := lo; i < min(lo+500, len(keys)); i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s%d')", keys[i], tag, i)
		}
		mustExec(t, db, sb.String())
	}
}

// naiveJoin is the reference join step: a plain nested loop in the order
// the engine's candidate loops visit pairs, matching on the first column
// of the first relation against the first column of the right one.
func naiveJoin(left []jrow, right matRel, join sqlast.JoinType, width []int, on bool) []jrow {
	match := func(l jrow, r []Value) bool {
		return !on || Compare(l[0][0], r[0]) == 0
	}
	nullLeft := make(jrow, len(width))
	for i, w := range width {
		nullLeft[i] = nullRow(w)
	}
	join1 := func(l jrow, r []Value) jrow { return append(slices.Clone(l), r) }
	var out []jrow
	switch join {
	case sqlast.JoinLeft, sqlast.JoinFull:
		matched := make([]bool, len(right.rows))
		for _, l := range left {
			any := false
			for ri, r := range right.rows {
				if match(l, r) {
					any, matched[ri] = true, true
					out = append(out, join1(l, r))
				}
			}
			if !any {
				out = append(out, join1(l, nullRow(len(right.cols))))
			}
		}
		if join == sqlast.JoinFull {
			for ri, r := range right.rows {
				if !matched[ri] {
					out = append(out, join1(nullLeft, r))
				}
			}
		}
	case sqlast.JoinRight:
		for _, r := range right.rows {
			any := false
			for _, l := range left {
				if match(l, r) {
					any = true
					out = append(out, join1(l, r))
				}
			}
			if !any {
				out = append(out, join1(nullLeft, r))
			}
		}
	default:
		for _, l := range left {
			for _, r := range right.rows {
				if match(l, r) {
					out = append(out, join1(l, r))
				}
			}
		}
	}
	return out
}

func renderJrows(rows []jrow) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, vals := range row {
			parts[j] = renderRow(vals)
		}
		out[i] = strings.Join(parts, " / ")
	}
	return out
}

// TestJoinArenaMatchesNestedLoop drives the join steps at yields around
// every chunk boundary and checks the combined rows against a naive
// nested loop, in contents and order, for comma, inner, LEFT, RIGHT and
// FULL joins and the index-probe path. Every row must be
// capacity-bounded, so an append to one never writes into its neighbour.
func TestJoinArenaMatchesNestedLoop(t *testing.T) {
	d, err := dialect.Get("sqlite")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"comma", "comma3", "inner", "probe", "left", "right", "full"} {
		for _, n := range []int{0, 1, 31, 32, 33, 1023, 1024, 1025, 5003} {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				sql, lk, rk := arenaJoinCase(kind, n)
				rec := coverage.NewRecorder()
				db := Open(d, WithoutFaults(), WithCoverage(rec))
				mustExec(t, db, "CREATE TABLE l (c0 INTEGER, c1 TEXT)")
				mustExec(t, db, "CREATE TABLE r (k0 INTEGER, k1 TEXT)")
				mustExec(t, db, "CREATE TABLE m (m0 INTEGER)")
				mustExec(t, db, "INSERT INTO m VALUES (7)")
				insertKeys(t, db, "l", "l", lk)
				insertKeys(t, db, "r", "r", rk)
				if kind == "probe" {
					// Right keys are ascending and distinct, so index
					// order is table order and the reference holds.
					mustExec(t, db, "CREATE INDEX rk ON r (k0)")
				}
				stmt, err := sqlparse.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				sel := stmt.(*sqlast.Select)

				first, ferr := db.materializeRef(sel.From[0].Ref, nil)
				if ferr != nil {
					t.Fatal(ferr)
				}
				rels := []matRel{first}
				got := make([]jrow, len(first.rows))
				for i := range first.rows {
					got[i] = jrow{first.rows[i]}
				}
				want := slices.Clone(got)
				for step, item := range sel.From[1:] {
					right, rerr := db.materializeRef(item.Ref, nil)
					if rerr != nil {
						t.Fatal(rerr)
					}
					width := make([]int, len(rels))
					for i := range rels {
						width[i] = len(rels[i].cols)
					}
					want = naiveJoin(want, right, item.Join, width, item.On != nil)
					got, rerr = db.joinStep(sel, rels, got, right, item, step, nil, nil)
					if rerr != nil {
						t.Fatal(rerr)
					}
					rels = append(rels, right)
				}

				if len(got) != n {
					t.Fatalf("join yields %d rows, want %d", len(got), n)
				}
				if probed := slices.Contains(rec.HitPoints(), "exec.join.probe"); probed != (kind == "probe") {
					t.Fatalf("index probe used = %t", probed)
				}
				gotR, wantR := renderJrows(got), renderJrows(want)
				if !slices.Equal(gotR, wantR) {
					for i := range min(len(gotR), len(wantR)) {
						if gotR[i] != wantR[i] {
							t.Fatalf("row %d = %q, want %q", i, gotR[i], wantR[i])
						}
					}
					t.Fatalf("got %d rows, want %d", len(gotR), len(wantR))
				}
				for i, row := range got {
					if cap(row) != len(row) {
						t.Fatalf("row %d: cap %d != len %d", i, cap(row), len(row))
					}
					_ = append(row, nullRow(1))
				}
				if after := renderJrows(got); !slices.Equal(after, gotR) {
					t.Fatal("appending to a row changed its neighbour")
				}
			})
		}
	}
}

// TestSmallJoinAllocBound guards the per-statement allocation of a
// three-row, two-table inner join: the arena's first chunk is sized for
// such a join, not for a 1,024-slot (24 KiB) one. The statement measured
// about 3.1 KB per Exec with growing chunks and 29.7 KB with a fixed
// 1,024-slot first chunk; the 8 KiB bound sits between the two.
func TestSmallJoinAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation")
	}
	db := openClean(t, "sqlite")
	mustExec(t, db, "CREATE TABLE l (c0 INTEGER, c1 TEXT)")
	mustExec(t, db, "CREATE TABLE r (k0 INTEGER, k1 TEXT)")
	mustExec(t, db, "INSERT INTO l VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	mustExec(t, db, "INSERT INTO r VALUES (1, 'x'), (2, 'y'), (3, 'z')")
	const sql = "SELECT l.c1, r.k1 FROM l INNER JOIN r ON l.c0 = r.k0"
	if rows := mustQuery(t, db, sql).Rows; len(rows) != 3 {
		t.Fatalf("join yields %d rows, want 3", len(rows))
	}
	const runs = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perExec := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per Exec", perExec)
	const bound = 8 << 10
	if perExec > bound {
		t.Fatalf("%d bytes per Exec, want at most %d", perExec, bound)
	}
}
