// Golden regression tests: they pin the exact top-k output (root, score,
// keyword leaves) of every algorithm on a small deterministic dataset, so
// that future performance refactors cannot silently change ranking. The
// engine is deterministic by construction (frontiers are seeded in sorted
// order); if a change legitimately alters scores or order, regenerate the
// pinned values with:
//
//	go test -run TestGolden -v -golden-print
package banks_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"banks"
	"banks/internal/relational"
)

var goldenPrint = flag.Bool("golden-print", false, "print actual golden-test output instead of asserting")

// goldenDB builds a deterministic bibliography database: 4 authors, 2
// conferences, 5 papers and 6 authorship rows, searched with the default
// (random-walk) prestige.
func goldenDB(t testing.TB) *banks.DB {
	t.Helper()
	db := relational.NewDatabase()
	author, _ := db.CreateTable("author", []string{"name"}, nil)
	conf, _ := db.CreateTable("conference", []string{"name"}, nil)
	paper, _ := db.CreateTable("paper", []string{"title"}, []relational.FK{{Name: "conf", RefTable: "conference"}})
	writes, _ := db.CreateTable("writes", nil, []relational.FK{
		{Name: "author", RefTable: "author"},
		{Name: "paper", RefTable: "paper"},
	})
	author.Append([]string{"Jim Gray"}, nil)
	author.Append([]string{"Pat Selinger"}, nil)
	author.Append([]string{"Jeffrey Ullman"}, nil)
	author.Append([]string{"Michael Stonebraker"}, nil)
	conf.Append([]string{"VLDB"}, nil)
	conf.Append([]string{"SIGMOD"}, nil)
	paper.Append([]string{"Transaction Recovery Principles"}, []int32{0})
	paper.Append([]string{"Access Path Selection"}, []int32{1})
	paper.Append([]string{"Database System Concepts"}, []int32{0})
	paper.Append([]string{"Query Optimization Survey"}, []int32{1})
	paper.Append([]string{"Distributed Transaction Management"}, []int32{0})
	writes.Append(nil, []int32{0, 0})
	writes.Append(nil, []int32{1, 1})
	writes.Append(nil, []int32{2, 2})
	writes.Append(nil, []int32{3, 3})
	writes.Append(nil, []int32{0, 4})
	writes.Append(nil, []int32{1, 4})
	if err := db.Freeze(); err != nil {
		t.Fatal(err)
	}
	bdb, err := banks.Build(db, banks.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return bdb
}

// goldenAnswers renders the top-k of one search in the pinned format: one
// line per answer with root label, score to 6 decimals, and the keyword
// leaf labels in keyword order.
func goldenAnswers(t testing.TB, db *banks.DB, query string, algo banks.Algorithm, opts banks.Options) string {
	t.Helper()
	res, err := db.Search(query, algo, opts)
	if err != nil {
		t.Fatalf("%s %q: %v", algo, query, err)
	}
	var sb strings.Builder
	for _, a := range res.Answers {
		leaves := make([]string, len(a.KeywordNodes))
		for i, u := range a.KeywordNodes {
			leaves[i] = db.NodeLabel(u)
		}
		fmt.Fprintf(&sb, "root=%s score=%.6f leaves=[%s]\n",
			db.NodeLabel(a.Root), a.Score, strings.Join(leaves, " | "))
	}
	return sb.String()
}

func goldenNear(t testing.TB, db *banks.DB, query string, opts banks.Options) string {
	t.Helper()
	res, _, err := db.Near(query, opts)
	if err != nil {
		t.Fatalf("near %q: %v", query, err)
	}
	var sb strings.Builder
	for _, r := range res {
		fmt.Fprintf(&sb, "node=%s act=%.6f\n", db.NodeLabel(r.Node), r.Activation)
	}
	return sb.String()
}

type goldenCase struct {
	name  string
	query string
	algo  banks.Algorithm
	near  bool
	k     int
	want  string
}

var goldenCases = []goldenCase{
	{
		name: "gray-transaction-bidirectional", query: "gray transaction", algo: banks.Bidirectional, k: 3,
		want: "root=writes[4] score=0.417023 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n" +
			"root=writes[0] score=0.411325 leaves=[author[0]: Jim Gray | paper[0]: Transaction Recovery Principles]\n" +
			"root=conference[0]: VLDB score=0.185834 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n",
	},
	{
		name: "gray-transaction-si-backward", query: "gray transaction", algo: banks.SIBackward, k: 3,
		want: "root=writes[4] score=0.417023 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n" +
			"root=writes[0] score=0.411325 leaves=[author[0]: Jim Gray | paper[0]: Transaction Recovery Principles]\n" +
			"root=conference[0]: VLDB score=0.185834 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n",
	},
	{
		// MI-Backward's third answer differs legitimately: Backward search
		// emits per-origin tree variants (§4.6), surfacing the paper-rooted
		// tree before the conference-rooted one.
		name: "gray-transaction-mi-backward", query: "gray transaction", algo: banks.MIBackward, k: 3,
		want: "root=writes[4] score=0.417023 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n" +
			"root=writes[0] score=0.411325 leaves=[author[0]: Jim Gray | paper[0]: Transaction Recovery Principles]\n" +
			"root=paper[0]: Transaction Recovery Principles score=0.210338 leaves=[author[0]: Jim Gray | paper[4]: Distributed Transaction Management]\n",
	},
	{
		name: "selinger-vldb-bidirectional", query: "selinger vldb", algo: banks.Bidirectional, k: 2,
		want: "root=writes[5] score=0.317047 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n" +
			"root=writes[0] score=0.139203 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n",
	},
	{
		name: "selinger-vldb-si-backward", query: "selinger vldb", algo: banks.SIBackward, k: 2,
		want: "root=writes[5] score=0.317047 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n" +
			"root=writes[0] score=0.139203 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n",
	},
	{
		name: "selinger-vldb-mi-backward", query: "selinger vldb", algo: banks.MIBackward, k: 2,
		want: "root=writes[5] score=0.317047 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n" +
			"root=writes[0] score=0.139203 leaves=[author[1]: Pat Selinger | conference[0]: VLDB]\n",
	},
	{
		name: "near-gray-recovery", query: "gray recovery", near: true, k: 4,
		want: "node=paper[0]: Transaction Recovery Principles act=1.183024\n" +
			"node=author[0]: Jim Gray act=1.083051\n" +
			"node=writes[0] act=0.557687\n" +
			"node=writes[4] act=0.246397\n",
	},
}

func TestGoldenTopK(t *testing.T) {
	db := goldenDB(t)
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var got string
			if tc.near {
				got = goldenNear(t, db, tc.query, banks.Options{K: tc.k})
			} else {
				got = goldenAnswers(t, db, tc.query, tc.algo, banks.Options{K: tc.k})
			}
			if *goldenPrint {
				fmt.Printf("=== %s ===\n%s", tc.name, got)
				return
			}
			if got != tc.want {
				t.Errorf("golden mismatch:\n--- want ---\n%s--- got ---\n%s", tc.want, got)
			}
		})
	}
}
