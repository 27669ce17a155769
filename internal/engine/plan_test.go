package engine

import (
	"fmt"
	"slices"
	"testing"

	"sqlancerpp/internal/dialect"
	"sqlancerpp/internal/faults"
)

func openPlanDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	return Open(dialect.MustGet("sqlite"), append([]Option{WithoutFaults()}, opts...)...)
}

// checkIndexConsistent verifies the ordered-store invariant after DML:
// exactly one entry per covered visible row, composite keys in
// lexicographic order, every entry referencing a live row, and the lead
// positions matching the index's declared columns.
func checkIndexConsistent(t *testing.T, db *DB, name string) {
	t.Helper()
	ix := db.store.index(name)
	if ix == nil {
		t.Fatalf("no such index %q", name)
	}
	tbl := db.store.table(ix.Table)
	if len(ix.leads) != len(ix.Columns) {
		t.Fatalf("index %s: %d lead positions for %d columns", name, len(ix.leads), len(ix.Columns))
	}
	for i, c := range ix.Columns {
		if ix.leads[i] != tbl.ColumnIndex(c) {
			t.Fatalf("index %s: lead %d = %d, want column %q at %d",
				name, i, ix.leads[i], c, tbl.ColumnIndex(c))
		}
	}
	live := map[*Value]bool{}
	want := 0
	for _, row := range tbl.Rows {
		if db.indexCovers(tbl, ix, row) {
			live[&row[0]] = true
			want++
		}
	}
	if len(ix.entries) != want {
		t.Fatalf("index %s: %d entries for %d covered rows", name, len(ix.entries), want)
	}
	seen := map[*Value]bool{}
	for i, e := range ix.entries {
		if !live[&e[0]] {
			t.Fatalf("index %s: entry %d references a detached row %v", name, i, e)
		}
		if seen[&e[0]] {
			t.Fatalf("index %s: duplicate entry for one row", name)
		}
		seen[&e[0]] = true
		if i > 0 && ix.entryCompare(ix.entries[i-1], e) > 0 {
			t.Fatalf("index %s: entries out of key order at %d", name, i)
		}
	}
}

// TestIndexMaintenanceAcrossDML drives the store through every DML path
// that must keep it in sync: INSERT (with NULLs and duplicate keys),
// UPDATE (key change and partial-coverage change), DELETE (filtered and
// unconditional), INSERT OR IGNORE, and ALTER TABLE rebuilds.
func TestIndexMaintenanceAcrossDML(t *testing.T) {
	db := openPlanDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "CREATE INDEX i ON t (a)")
	mustExec(t, db, "CREATE INDEX p ON t (a) WHERE b > 5")
	mustExec(t, db, "CREATE INDEX ic ON t (b, a)") // composite store
	steps := []string{
		"INSERT INTO t (a, b) VALUES (3, 10), (1, 0), (3, 7), (NULL, 9), (2, NULL)",
		"UPDATE t SET a = 5 WHERE a = 3",      // key change
		"UPDATE t SET b = 1 WHERE a = 5",      // coverage change for the partial index
		"DELETE FROM t WHERE a = 1",           // filtered removal
		"INSERT INTO t (a, b) VALUES (7, 99)", // post-delete insert
		"ALTER TABLE t ADD COLUMN c TEXT",     // rebuild (row slices re-allocated)
		"UPDATE t SET c = 'x' WHERE a = 7",
		"DELETE FROM t", // unconditional: stores empty
	}
	for _, sql := range steps {
		mustExec(t, db, sql)
		checkIndexConsistent(t, db, "i")
		checkIndexConsistent(t, db, "p")
		checkIndexConsistent(t, db, "ic")
	}
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 9)")
	checkIndexConsistent(t, db, "i")
	checkIndexConsistent(t, db, "p")
	checkIndexConsistent(t, db, "ic")
}

// TestIndexMaintenanceOnRefresh covers dialects where inserts become
// visible only on REFRESH TABLE: pending rows must enter the store at
// refresh time, not before. (CrateDB itself has no CREATE INDEX, so the
// test re-enables it on a clone to combine both behaviors.)
func TestIndexMaintenanceOnRefresh(t *testing.T) {
	d := dialect.MustGet("cratedb").Clone()
	d.Name = "cratedb-refresh-index-test"
	d.Statements["CREATE INDEX"] = true
	db := Open(d, WithoutFaults())
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "CREATE INDEX i ON t (a)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1), (2)")
	if ix := db.store.index("i"); len(ix.entries) != 0 {
		t.Fatalf("pending rows must not be indexed, got %d entries", len(ix.entries))
	}
	mustExec(t, db, "REFRESH TABLE t")
	checkIndexConsistent(t, db, "i")
	res := mustQuery(t, db, "SELECT * FROM t WHERE a = 2")
	if len(res.Rows) != 1 {
		t.Fatalf("post-refresh probe returned %d rows", len(res.Rows))
	}
}

// populateScanTable loads n rows with a = i % groups (selective keys).
func populateScanTable(t *testing.T, db *DB, n, groups int) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	for i := 0; i < n; i += 8 {
		sql := "INSERT INTO t (a, b) VALUES "
		for j := i; j < i+8 && j < n; j++ {
			if j > i {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d)", j%groups, j)
		}
		mustExec(t, db, sql)
	}
}

// TestIndexPathCostsFewerRows is the cost-model acceptance check: an
// equality probe over a selective index must charge far fewer work units
// than the same query on a full-scan instance, while returning the same
// rows.
func TestIndexPathCostsFewerRows(t *testing.T) {
	idx := openPlanDB(t)
	full := openPlanDB(t, WithPlanSpec(PlanSpec{DisableIndexPaths: true}))
	populateScanTable(t, idx, 256, 64)
	populateScanTable(t, full, 256, 64)
	mustExec(t, idx, "CREATE INDEX i ON t (a)")
	mustExec(t, full, "CREATE INDEX i ON t (a)")

	const q = "SELECT * FROM t WHERE a = 7"
	rIdx := mustQuery(t, idx, q)
	costIdx := idx.LastCost()
	rFull := mustQuery(t, full, q)
	costFull := full.LastCost()

	if len(rIdx.Rows) != 4 || len(rFull.Rows) != 4 {
		t.Fatalf("row counts: indexed %d, full %d, want 4", len(rIdx.Rows), len(rFull.Rows))
	}
	if costIdx*4 > costFull {
		t.Fatalf("index path cost %d not clearly below full scan cost %d", costIdx, costFull)
	}
	// Range probes use the index too.
	mustQuery(t, idx, "SELECT * FROM t WHERE a < 3")
	costRange := idx.LastCost()
	mustQuery(t, full, "SELECT * FROM t WHERE a < 3")
	if fullRange := full.LastCost(); costRange >= fullRange {
		t.Fatalf("range probe cost %d not below full scan %d", costRange, fullRange)
	}
}

// TestIndexPathSkippedWhenNotSelective: a probe spanning the whole table
// must fall back to the full scan (no pointless candidate copy).
func TestIndexPathSkippedWhenNotSelective(t *testing.T) {
	db := openPlanDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "CREATE INDEX i ON t (a)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1), (1), (1)")
	res := mustQuery(t, db, "SELECT * FROM t WHERE a = 1")
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
}

// TestFaultStaleIndexAfterUpdate: with the fault active, UPDATE leaves
// the store untouched, so probes miss the new key and resurrect the
// detached pre-update row — and the ground truth triggers only then.
func TestFaultStaleIndexAfterUpdate(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.StaleIndexAfterUpdate, Class: faults.Logic})
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "CREATE INDEX i ON t (a)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)")

	// Before any UPDATE the index is fresh: no trigger on probes.
	res := mustQuery(t, db, "SELECT * FROM t WHERE a = 2")
	if len(res.Rows) != 1 || len(db.TriggeredFaults()) != 0 {
		t.Fatalf("fresh index probe wrong: %d rows, triggered %v", len(res.Rows), db.TriggeredFaults())
	}

	mustExec(t, db, "UPDATE t SET a = 9 WHERE a = 2")

	// Probe for the new key: the stale store has no entry for 9.
	res = mustQuery(t, db, "SELECT * FROM t WHERE a = 9")
	if len(res.Rows) != 0 {
		t.Fatalf("stale index should miss the updated row, got %d rows", len(res.Rows))
	}
	if len(db.TriggeredFaults()) != 1 {
		t.Fatalf("missing-row divergence must trigger, got %v", db.TriggeredFaults())
	}

	// Probe for the old key: the stale entry returns the detached row.
	res = mustQuery(t, db, "SELECT * FROM t WHERE a = 2")
	if len(res.Rows) != 1 || res.RenderRows()[0] != "2|2" {
		t.Fatalf("stale index should resurrect the old row, got %v", res.RenderRows())
	}
	if len(db.TriggeredFaults()) != 1 {
		t.Fatalf("resurrected-row divergence must trigger, got %v", db.TriggeredFaults())
	}

	// An unaffected key probes identically on both paths: no trigger.
	res = mustQuery(t, db, "SELECT * FROM t WHERE a = 4")
	if len(res.Rows) != 1 || len(db.TriggeredFaults()) != 0 {
		t.Fatalf("unaffected probe must stay clean: %d rows, triggered %v",
			len(res.Rows), db.TriggeredFaults())
	}
}

// TestFaultIndexRangeBoundary: <= on an index path behaves like <,
// dropping the boundary keys; < itself and the un-faulted >= stay clean.
func TestFaultIndexRangeBoundary(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.IndexRangeBoundary, Class: faults.Logic, Param: "<="})
	mustExec(t, db, "CREATE TABLE t (a INTEGER)")
	mustExec(t, db, "CREATE INDEX i ON t (a)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (0), (1), (2), (3), (4), (5), (6), (7), (8), (9)")

	res := mustQuery(t, db, "SELECT * FROM t WHERE a <= 3")
	if len(res.Rows) != 3 {
		t.Fatalf("faulty <= should drop the boundary key, got %d rows", len(res.Rows))
	}
	if len(db.TriggeredFaults()) != 1 {
		t.Fatalf("boundary drop must trigger, got %v", db.TriggeredFaults())
	}
	res = mustQuery(t, db, "SELECT * FROM t WHERE a < 3")
	if len(res.Rows) != 3 || len(db.TriggeredFaults()) != 0 {
		t.Fatalf("< must stay clean: %d rows, triggered %v", len(res.Rows), db.TriggeredFaults())
	}
	res = mustQuery(t, db, "SELECT * FROM t WHERE a >= 7")
	if len(res.Rows) != 3 || len(db.TriggeredFaults()) != 0 {
		t.Fatalf(">= is not faulted here: %d rows, triggered %v", len(res.Rows), db.TriggeredFaults())
	}
	// No boundary key present: the spans coincide, no trigger.
	mustExec(t, db, "DELETE FROM t WHERE a = 3")
	res = mustQuery(t, db, "SELECT * FROM t WHERE a <= 3")
	if len(res.Rows) != 3 || len(db.TriggeredFaults()) != 0 {
		t.Fatalf("no boundary key: %d rows, triggered %v", len(res.Rows), db.TriggeredFaults())
	}
}

// TestFaultUniqueIndexFalseConflict: a multi-column unique index that
// compares only its leading key column raises a spurious internal error
// for rows differing in a later column; real conflicts keep reporting
// the ordinary constraint violation.
func TestFaultUniqueIndexFalseConflict(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.UniqueIndexFalseConflict, Class: faults.Error})
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "CREATE UNIQUE INDEX u ON t (a, b)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 1)")

	err := db.Exec("INSERT INTO t (a, b) VALUES (1, 2)")
	if !IsInternal(err) {
		t.Fatalf("want spurious internal error, got %v", err)
	}
	if len(db.TriggeredFaults()) != 1 {
		t.Fatalf("false conflict must trigger, got %v", db.TriggeredFaults())
	}

	mustExec(t, db, "INSERT INTO t (a, b) VALUES (2, 1)") // distinct leading key: fine
	err = db.Exec("INSERT INTO t (a, b) VALUES (2, 1)")   // true duplicate
	if err == nil || IsInternal(err) || IsCrash(err) {
		t.Fatalf("true duplicate must stay a constraint error, got %v", err)
	}
	if len(db.TriggeredFaults()) != 0 {
		t.Fatalf("true duplicate must not trigger, got %v", db.TriggeredFaults())
	}
}

// TestFaultPartialIndexTriggerPrecision: the refit PartialIndexScan
// defect triggers only when an uncovered row would actually have
// survived the full WHERE clause.
func TestFaultPartialIndexTriggerPrecision(t *testing.T) {
	db := faultedDB(t, "sqlite",
		faults.Fault{ID: "f1", Kind: faults.PartialIndexScan, Class: faults.Logic})
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 10), (1, 0)")
	mustExec(t, db, "CREATE INDEX i ON t (a) WHERE b > 5")

	// The uncovered row (1, 0) passes a = 1: dropped and triggered.
	res := mustQuery(t, db, "SELECT * FROM t WHERE a = 1")
	if len(res.Rows) != 1 || len(db.TriggeredFaults()) != 1 {
		t.Fatalf("uncovered drop: %d rows, triggered %v", len(res.Rows), db.TriggeredFaults())
	}
	// A second conjunct that excludes the uncovered row anyway: the
	// result matches the clean scan, so no trigger.
	res = mustQuery(t, db, "SELECT * FROM t WHERE a = 1 AND b > 5")
	if len(res.Rows) != 1 || len(db.TriggeredFaults()) != 0 {
		t.Fatalf("covered-only result must not trigger: %d rows, triggered %v",
			len(res.Rows), db.TriggeredFaults())
	}
}

// partialIndexDivergence runs script on a monetdb engine armed with
// PartialIndexScan ("pis") and StaleIndexAfterUpdate ("stale") and on a
// fault-free engine, checks that the final query diverges, and returns
// the fault IDs that query triggered.
func partialIndexDivergence(t *testing.T, script []string) []string {
	t.Helper()
	faulty := faultedDB(t, "monetdb",
		faults.Fault{ID: "pis", Kind: faults.PartialIndexScan, Class: faults.Logic},
		faults.Fault{ID: "stale", Kind: faults.StaleIndexAfterUpdate, Class: faults.Logic})
	clean := openPlanDB(t)
	last := len(script) - 1
	for _, q := range script[:last] {
		mustExec(t, faulty, q)
		mustExec(t, clean, q)
	}
	faulty.TriggeredFaults() // only the final query's triggers count
	got := mustQuery(t, faulty, script[last]).RenderRows()
	triggered := faulty.TriggeredFaults()
	want := mustQuery(t, clean, script[last]).RenderRows()
	if fmt.Sprint(got) == fmt.Sprint(want) {
		t.Fatalf("no divergence to attribute: both engines return %v", got)
	}
	return triggered
}

// TestFaultPartialIndexStaleStore: a probe through the PartialIndexScan
// path on a store StaleIndexAfterUpdate left stale returns the
// pre-update row; the divergence triggers the stale-index fault (the
// partial branch used to return before the stale check — a false
// positive).
func TestFaultPartialIndexStaleStore(t *testing.T) {
	triggered := partialIndexDivergence(t, []string{
		"CREATE TABLE t1 (c0 BOOLEAN, c1 BOOLEAN, PRIMARY KEY (c0))",
		"INSERT OR IGNORE INTO t1 (c0, c1) VALUES (FALSE, TRUE)",
		"CREATE UNIQUE INDEX i1 ON t1 (c1) WHERE ('0' LIKE '%')",
		"UPDATE t1 SET c0 = t1.c0, c1 = FALSE",
		"SELECT t1.c1 FROM t1 WHERE (t1.c1 = TRUE)",
	})
	if !slices.Contains(triggered, "stale") {
		t.Fatalf("stale partial store diverged without triggering the stale-index fault: %v", triggered)
	}
}

// TestFaultPartialIndexDetachedRow: a partial index whose predicate reads
// the table itself stops covering a row once DELETE empties the table,
// so the row's entry is never removed; the PartialIndexScan path then
// returns the deleted row, which must trigger the fault.
func TestFaultPartialIndexDetachedRow(t *testing.T) {
	triggered := partialIndexDivergence(t, []string{
		"CREATE TABLE t0 (c0 INT, c3 INT)",
		"INSERT INTO t0 (c0, c3) VALUES (1, 2)",
		"CREATE INDEX i1 ON t0 (c0, c3) WHERE (EXISTS (SELECT * FROM t0))",
		"DELETE FROM t0 WHERE c0 = 1",
		"SELECT * FROM t0 WHERE c0 = 1",
	})
	if !slices.Contains(triggered, "pis") {
		t.Fatalf("detached partial-index row surfaced without triggering PartialIndexScan: %v", triggered)
	}
}

// TestIndexPathOrderSensitiveShapes is the regression test for
// order-sensitivity: the index path yields rows in key order, so any
// construct where scan order selects rows or values (LIMIT/OFFSET,
// ORDER BY ties feeding a LIMIT, group representatives, compound
// LIMIT) must stay on the order-preserving full scan — while pure
// aggregates like NoREC's COUNT(*) keep the index path.
func TestIndexPathOrderSensitiveShapes(t *testing.T) {
	idx := openPlanDB(t)
	full := openPlanDB(t, WithPlanSpec(PlanSpec{DisableIndexPaths: true}))
	for _, db := range []*DB{idx, full} {
		mustExec(t, db, "CREATE TABLE t (c0 INTEGER, c1 TEXT)")
		mustExec(t, db, "INSERT INTO t (c0, c1) VALUES (5, 'first'), (3, 'second'), (4, 'third')")
		mustExec(t, db, "CREATE INDEX i ON t (c0)")
	}
	queries := []string{
		"SELECT c1 FROM t WHERE c0 >= 4 LIMIT 1",
		"SELECT (SELECT c1 FROM t WHERE c0 >= 4 LIMIT 1) FROM t",
		"SELECT c1 FROM t WHERE c0 >= 3 ORDER BY 1 = 1 LIMIT 2", // constant keys: all ties
		"SELECT COUNT(*), c0 FROM t WHERE c0 >= 3",              // representative-row projection
		"SELECT c1 FROM t WHERE c0 >= 4 UNION ALL SELECT c1 FROM t WHERE c0 >= 4 LIMIT 2",
	}
	for _, q := range queries {
		a, errA := idx.Query(q)
		b, errB := full.Query(q)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: status diverged: %v vs %v", q, errA, errB)
		}
		if errA != nil {
			continue
		}
		ra, rb := a.RenderRows(), b.RenderRows()
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d rows", q, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("%s: row %d diverged: %q vs %q", q, i, ra[i], rb[i])
			}
		}
	}
	// Pure aggregates stay on the index path (NoREC's optimized arm).
	mustQuery(t, idx, "SELECT COUNT(*) FROM t WHERE c0 = 4")
	costIdx := idx.LastCost()
	mustQuery(t, full, "SELECT COUNT(*) FROM t WHERE c0 = 4")
	if costFull := full.LastCost(); costIdx >= costFull {
		t.Fatalf("COUNT(*) probe must keep the index path: cost %d vs %d", costIdx, costFull)
	}
}

// TestValidateCreateIndexDuplicateColumn: the key store is per column
// list; a duplicate column in the list is a semantic error.
func TestValidateCreateIndexDuplicateColumn(t *testing.T) {
	db := openPlanDB(t)
	mustExec(t, db, "CREATE TABLE t (a INTEGER, b INTEGER)")
	if err := db.Exec("CREATE INDEX i ON t (a, a)"); err == nil {
		t.Fatal("duplicate index column must be rejected")
	}
	mustExec(t, db, "CREATE INDEX i ON t (a, b)")
}
