// Command doccheck is the offline markdown checker CI runs over docs/
// and the README: every relative link must point at a file or
// directory that exists in the repo, and every #fragment must match a
// heading anchor (GitHub slug rules) in its target document. External
// http(s)/mailto links are skipped — CI must not flake on the
// network's mood.
//
//	go run ./cmd/doccheck README.md docs
//
// With -metrics <doc.md> it additionally cross-checks the metric
// reference both ways: every hemeserved_*/go_* metric name literal in
// the Go source must appear in that document, so adding a Metrics field
// or obs histogram without documenting it fails CI, and every table row
// naming a metric must name one the source exposes (histograms under
// their exposition names, `<base>_seconds`). The flight-recorder event
// table (the one headed "| type | when |") must have a row for every
// obs.Ev* event and no row that is neither one of those nor a phase
// event (obs.PhaseEventName):
//
//	go run ./cmd/doccheck -metrics docs/OBSERVABILITY.md README.md docs
//
// With -spec <doc.md> it cross-checks the job-spec table: the table
// that follows the words **JobSpec** in that document must have one row
// per json tag of service.JobSpec and no row that names anything else:
//
//	go run ./cmd/doccheck -spec docs/API.md
//
// With -flags <doc.md,...> it cross-checks the daemon's flag tables:
// every flag cmd/hemeserved declares (read from its source with go/ast)
// must have exactly one row across the flag tables of those documents,
// and no row may name a flag it does not declare:
//
//	go run ./cmd/doccheck -flags README.md,docs/OPERATIONS.md
//
// Exits non-zero listing every broken link / undocumented metric /
// spec-table or flag-table mismatch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/service"
)

var (
	// inline links and images: [text](target) / ![alt](target "title")
	linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)
	// reference definitions: [label]: target
	refRe     = regexp.MustCompile(`(?m)^\[[^\]]+\]:\s*(\S+)`)
	headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)
	fenceRe   = regexp.MustCompile("(?ms)^```.*?^```[ \t]*$")
	inlineRe  = regexp.MustCompile("`[^`]*`")
	slugDrop  = regexp.MustCompile(`[^a-z0-9 \-_]`)
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: doccheck [-metrics doc.md] [-spec doc.md] [-flags doc.md,...] <file-or-dir>...")

func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("doccheck", flag.ContinueOnError)
	metricsDoc := flags.String("metrics", "", "metric reference document; every hemeserved_*/go_* name literal in the Go source must appear in it")
	specDoc := flags.String("spec", "", "API document; its JobSpec table must have exactly one row per json tag of service.JobSpec")
	flagDocs := flags.String("flags", "", "comma-separated documents whose flag tables must list each flag of cmd/hemeserved exactly once, and nothing else")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if flags.NArg() < 1 && *metricsDoc == "" && *specDoc == "" && *flagDocs == "" {
		return errUsage
	}
	var files []string
	for _, arg := range flags.Args() {
		st, err := os.Stat(arg)
		if err != nil {
			return err
		}
		if !st.IsDir() {
			files = append(files, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			return err
		}
	}

	broken := 0
	checked := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		// Links inside fenced code blocks are examples, not links.
		text := fenceRe.ReplaceAllStringFunc(string(raw), blankLines)
		type link struct {
			target string
			offset int
		}
		var links []link
		for _, m := range linkRe.FindAllStringSubmatchIndex(text, -1) {
			links = append(links, link{text[m[2]:m[3]], m[2]})
		}
		for _, m := range refRe.FindAllStringSubmatchIndex(text, -1) {
			links = append(links, link{text[m[2]:m[3]], m[2]})
		}
		for _, l := range links {
			checked++
			if problem := checkTarget(file, l.target); problem != "" {
				line := 1 + strings.Count(text[:l.offset], "\n")
				fmt.Fprintf(stdout, "%s:%d: %s\n", file, line, problem)
				broken++
			}
		}
	}
	if broken > 0 {
		return fmt.Errorf("%d broken link(s) in %d checked", broken, checked)
	}
	fmt.Fprintf(stdout, "doccheck: %d links ok across %d files\n", checked, len(files))

	if *metricsDoc != "" {
		if err := checkMetricsDoc(*metricsDoc, stdout); err != nil {
			return err
		}
	}
	if *specDoc != "" {
		if err := checkSpecDoc(*specDoc, stdout); err != nil {
			return err
		}
	}
	if *flagDocs != "" {
		return checkFlagDocs(daemonDir, strings.Split(*flagDocs, ","), stdout)
	}
	return nil
}

// daemonDir is the package whose flags -flags holds the documents to,
// relative to the repository root doccheck runs from.
const daemonDir = "cmd/hemeserved"

var (
	// flagCellRe matches a table row's first cell that names one or
	// more flags: `-name`, or several joined by slashes.
	flagCellRe = regexp.MustCompile("^`-[a-z0-9-]+`(?:\\s*/\\s*`-[a-z0-9-]+`)*$")
	flagNameRe = regexp.MustCompile("`-([a-z0-9-]+)`")
)

// checkFlagDocs holds the flag tables of docs against the flags the
// non-test Go files of dir declare: each declared flag has exactly one
// row across all the documents, and every row names a declared flag.
func checkFlagDocs(dir string, docs []string, stdout io.Writer) error {
	declared, err := declaredFlags(dir)
	if err != nil {
		return err
	}
	rows := map[string][]string{} // flag name → "doc:line" of each row naming it
	var problems []string
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			return err
		}
		text := fenceRe.ReplaceAllStringFunc(string(raw), blankLines)
		for i, line := range strings.Split(text, "\n") {
			cells := strings.Split(line, "|")
			if !strings.HasPrefix(line, "|") || len(cells) < 3 {
				continue
			}
			cell := strings.TrimSpace(cells[1])
			if !flagCellRe.MatchString(cell) {
				continue
			}
			at := fmt.Sprintf("%s:%d", doc, i+1)
			for _, m := range flagNameRe.FindAllStringSubmatch(cell, -1) {
				rows[m[1]] = append(rows[m[1]], at)
				if !slices.Contains(declared, m[1]) {
					problems = append(problems, fmt.Sprintf("%s: row names -%s, which %s does not declare", at, m[1], dir))
				}
			}
		}
	}
	for _, name := range declared {
		switch at := rows[name]; len(at) {
		case 0:
			problems = append(problems, fmt.Sprintf("-%s (%s) has no row", name, dir))
		case 1:
		default:
			problems = append(problems, fmt.Sprintf("-%s (%s) has %d rows: %s", name, dir, len(at), strings.Join(at, ", ")))
		}
	}
	if len(problems) > 0 {
		slices.Sort(problems)
		for _, p := range problems {
			fmt.Fprintf(stdout, "flag table: %s\n", p)
		}
		return fmt.Errorf("%d flag-table mismatch(es) against %s", len(problems), dir)
	}
	fmt.Fprintf(stdout, "doccheck: %d %s flags documented once in %s\n", len(declared), dir, strings.Join(docs, ", "))
	return nil
}

// flagDefiners maps the flag package's defining methods to the index of
// their name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0, "Int": 0, "Int64": 0,
	"String": 0, "TextVar": 1, "Uint": 0, "Uint64": 0, "Var": 1,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "UintVar": 1, "Uint64Var": 1,
}

// declaredFlags parses the non-test Go files of dir and returns the
// names of the flags they define, sorted: every call of a flag-defining
// method whose name argument is a string literal.
func declaredFlags(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var names []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			arg, ok := flagDefiners[sel.Sel.Name]
			if !ok || arg >= len(call.Args) {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					names = append(names, name)
				}
			}
			return true
		})
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s declares no flags", dir)
	}
	slices.Sort(names)
	return names, nil
}

// rowNameRe matches a table row whose first cell is one backticked name.
var rowNameRe = regexp.MustCompile("(?m)^\\|\\s*`([a-z0-9_-]+)`\\s*\\|")

// checkSpecDoc holds the job-spec table of the API document — the
// table that follows the words **JobSpec** — against service.JobSpec:
// one row per json tag, no row without a field.
func checkSpecDoc(doc string, stdout io.Writer) error {
	raw, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	_, after, _ := strings.Cut(string(raw), "**JobSpec**")
	start := strings.Index(after, "\n|")
	if start < 0 {
		return fmt.Errorf("%s: no table after the words **JobSpec**", doc)
	}
	table, _, _ := strings.Cut(after[start:], "\n\n")
	rows := map[string]bool{}
	for _, m := range rowNameRe.FindAllStringSubmatch(table, -1) {
		rows[m[1]] = true
	}
	var problems []string
	spec := reflect.TypeOf(service.JobSpec{})
	for i := 0; i < spec.NumField(); i++ {
		tag, _, _ := strings.Cut(spec.Field(i).Tag.Get("json"), ",")
		if !rows[tag] {
			problems = append(problems, fmt.Sprintf("JobSpec.%s (json %q) has no row", spec.Field(i).Name, tag))
		}
		delete(rows, tag)
	}
	for name := range rows {
		problems = append(problems, fmt.Sprintf("row %q names no JobSpec field", name))
	}
	if len(problems) > 0 {
		slices.Sort(problems)
		for _, p := range problems {
			fmt.Fprintf(stdout, "%s: spec table: %s\n", doc, p)
		}
		return fmt.Errorf("%d spec-table mismatch(es) in %s", len(problems), doc)
	}
	fmt.Fprintf(stdout, "doccheck: %d JobSpec fields documented in %s\n", spec.NumField(), doc)
	return nil
}

// metricNameRe matches quoted metric-name literals in Go source. Base
// names count: the exposition writers append _seconds / _p50_ns etc.
// programmatically, and the doc lists the full serveable names, which
// contain the base as a substring.
var metricNameRe = regexp.MustCompile(`"((?:hemeserved|go)_[a-z0-9_]+)"`)

// checkMetricsDoc scans every non-test .go file under internal/ and
// cmd/ for metric name literals and fails when one is missing from the
// metric reference document, when a row of the document names a metric
// the source does not expose, or when its event table and the flight
// recorder's events disagree (checkEventTable).
func checkMetricsDoc(doc string, stdout io.Writer) error {
	ref, err := os.ReadFile(doc)
	if err != nil {
		return err
	}
	refText := string(ref)
	type miss struct{ file, name string }
	var missing []miss
	seen := map[string]bool{}
	total := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range metricNameRe.FindAllStringSubmatch(string(src), -1) {
				name := m[1]
				if seen[name] {
					continue
				}
				seen[name] = true
				total++
				if !strings.Contains(refText, name) {
					missing = append(missing, miss{path, name})
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, m := range missing {
		fmt.Fprintf(stdout, "%s: metric %q not documented in %s\n", m.file, m.name, doc)
	}
	stale := 0
	for _, m := range rowNameRe.FindAllStringSubmatch(refText, -1) {
		name := m[1]
		metric := strings.HasPrefix(name, "hemeserved_") || strings.HasPrefix(name, "go_")
		if !metric || seen[name] || seen[strings.TrimSuffix(name, "_seconds")] {
			continue
		}
		fmt.Fprintf(stdout, "%s: row names metric %q, which the source does not expose\n", doc, name)
		stale++
	}
	events, err := checkEventTable(doc, refText, stdout)
	if err != nil {
		return err
	}
	if len(missing)+stale+events > 0 {
		return fmt.Errorf("%d undocumented metric(s), %d stale metric row(s), %d event-table mismatch(es) in %s",
			len(missing), stale, events, doc)
	}
	fmt.Fprintf(stdout, "doccheck: %d metric names documented in %s\n", total, doc)
	return nil
}

// checkEventTable holds the flight-recorder event table of doc — the
// table headed "| type | when |" — against the event types a job
// records: every obs.Ev* constant has a row, and every row names one of
// those or a phase event. Returns how many mismatches it reported.
func checkEventTable(doc, text string, stdout io.Writer) (int, error) {
	_, after, ok := strings.Cut(text, "| type | when |")
	if !ok {
		return 0, fmt.Errorf("%s: no flight-recorder event table (a table headed | type | when |)", doc)
	}
	table, _, _ := strings.Cut(after, "\n\n")
	rows := map[string]bool{}
	for _, m := range rowNameRe.FindAllStringSubmatch(table, -1) {
		rows[m[1]] = true
	}
	known, err := recorderEvents("internal/obs")
	if err != nil {
		return 0, err
	}
	var problems []string
	for _, ev := range known {
		if !rows[ev] {
			problems = append(problems, fmt.Sprintf("event %q (obs) has no row", ev))
		}
	}
	for p := obs.Phase(0); obs.PhaseEventName(p) != "phase-unknown"; p++ {
		known = append(known, obs.PhaseEventName(p))
	}
	for ev := range rows {
		if !slices.Contains(known, ev) {
			problems = append(problems, fmt.Sprintf("row %q names no event a job records", ev))
		}
	}
	slices.Sort(problems)
	for _, p := range problems {
		fmt.Fprintf(stdout, "%s: event table: %s\n", doc, p)
	}
	return len(problems), nil
}

// recorderEvents parses the non-test Go files of dir and returns the
// values of its Ev* string constants — the flight-recorder event types.
func recorderEvents(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var events []string
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range spec.Names {
				if !strings.HasPrefix(name.Name, "Ev") || i >= len(spec.Values) {
					continue
				}
				if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						events = append(events, v)
					}
				}
			}
			return true
		})
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%s declares no Ev* events", dir)
	}
	return events, nil
}

// checkTarget validates one link target relative to the markdown file
// that contains it; returns "" when fine.
func checkTarget(file, target string) string {
	if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
		return "" // external: not checked offline
	}
	path, frag, _ := strings.Cut(target, "#")
	resolved := file
	if path != "" {
		resolved = filepath.Join(filepath.Dir(file), path)
		if _, err := os.Stat(resolved); err != nil {
			return fmt.Sprintf("broken link %q (%s does not exist)", target, resolved)
		}
	}
	if frag == "" {
		return ""
	}
	if !strings.HasSuffix(resolved, ".md") {
		return "" // anchors into non-markdown files are not ours to judge
	}
	raw, err := os.ReadFile(resolved)
	if err != nil {
		return fmt.Sprintf("unreadable link target %q: %v", target, err)
	}
	// Strip fenced code blocks before scanning headings: a shell
	// comment like "# submit a job" inside a fence is not an anchor.
	headings := fenceRe.ReplaceAllStringFunc(string(raw), blankLines)
	for _, m := range headingRe.FindAllStringSubmatch(headings, -1) {
		if slug(m[1]) == strings.ToLower(frag) {
			return ""
		}
	}
	return fmt.Sprintf("broken anchor %q (no heading slugs to #%s in %s)", target, frag, resolved)
}

// slug approximates GitHub's heading-anchor algorithm: drop inline
// code backticks, lowercase, strip punctuation, spaces to hyphens.
func slug(heading string) string {
	s := inlineRe.ReplaceAllStringFunc(heading, func(c string) string {
		return strings.Trim(c, "`")
	})
	s = strings.ToLower(s)
	s = slugDrop.ReplaceAllString(s, "")
	return strings.ReplaceAll(s, " ", "-")
}

// blankLines replaces a region with newlines so line numbers hold.
func blankLines(s string) string {
	return strings.Repeat("\n", strings.Count(s, "\n"))
}
