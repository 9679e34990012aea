// Command jsonq evaluates queries over JSON documents: unary JNL
// formulas (the paper's navigational logic), JSONPath expressions, or
// MongoDB find filters. All queries are compiled once into a plan by
// the shared engine layer and evaluated through its goroutine-safe API.
//
// Usage:
//
//	jsonq -doc file.json -jnl '[/name/first]'
//	jsonq -doc file.json -jsonpath '$.store.book[*].title'
//	jsonq -doc file.json -mongo '{"age": {"$gt": 30}}'
//	jsonq -doc batch.ndjson -ndjson -jsonpath '$.items[*]'
//
// With -jnl, the selected nodes (tree-domain addresses and values) are
// printed; with -jsonpath, the selected values; with -mongo, whether the
// document matches. Pass "-" as -doc to read from standard input.
//
// With -ndjson the document input is newline-delimited JSON: every line
// is one document, parsed and evaluated in parallel by the engine's
// worker pool. Results are printed in input order, one line per
// document. For -jnl and -jsonpath each line reports the number of
// selected nodes and their values; for -mongo, match/no match. The exit
// status is 0 when every line parsed (and, for -mongo, at least one
// document matched).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
)

func main() {
	docPath := flag.String("doc", "-", "JSON document file, or - for stdin")
	jnlSrc := flag.String("jnl", "", "unary JNL formula to evaluate")
	pathSrc := flag.String("jsonpath", "", "JSONPath expression to evaluate")
	mongoSrc := flag.String("mongo", "", "MongoDB find filter to evaluate")
	ndjson := flag.Bool("ndjson", false, "treat the document input as newline-delimited JSON and evaluate every line in parallel")
	flag.Parse()

	lang, src := engine.LangJNL, ""
	selected := 0
	if *jnlSrc != "" {
		lang, src = engine.LangJNL, *jnlSrc
		selected++
	}
	if *pathSrc != "" {
		lang, src = engine.LangJSONPath, *pathSrc
		selected++
	}
	if *mongoSrc != "" {
		lang, src = engine.LangMongoFind, *mongoSrc
		selected++
	}
	if selected != 1 {
		fatal(fmt.Errorf("exactly one of -jnl, -jsonpath, -mongo is required"))
	}

	eng := engine.New(engine.Options{})
	plan, err := eng.Compile(lang, src)
	if err != nil {
		fatal(err)
	}

	if *ndjson {
		runNDJSON(eng, plan, *docPath)
		return
	}

	doc, err := readDoc(*docPath)
	if err != nil {
		fatal(err)
	}
	tr := jsontree.FromValue(doc)
	switch lang {
	case engine.LangJNL:
		nodes, err := eng.Eval(context.Background(), plan, tr)
		if err != nil {
			fatal(err)
		}
		for _, n := range nodes {
			fmt.Printf("%v\t%s\n", tr.Path(n), tr.Value(n))
		}
		fmt.Fprintf(os.Stderr, "%d of %d nodes satisfy the formula\n", len(nodes), tr.Len())
	case engine.LangJSONPath:
		nodes, err := eng.Eval(context.Background(), plan, tr)
		if err != nil {
			fatal(err)
		}
		for _, n := range nodes {
			fmt.Println(tr.Value(n))
		}
	case engine.LangMongoFind:
		ok, err := eng.Validate(context.Background(), plan, tr)
		if err != nil {
			fatal(err)
		}
		if ok {
			fmt.Println("match")
		} else {
			fmt.Println("no match")
			os.Exit(1)
		}
	}
}

// runNDJSON evaluates the plan over every line of the document input
// through the engine's parallel NDJSON path.
func runNDJSON(eng *engine.Engine, plan *engine.Plan, docPath string) {
	in, err := openDoc(docPath)
	if err != nil {
		fatal(err)
	}
	defer in.Close()

	failures, matches := 0, 0
	var results []engine.DocResult
	if plan.Language() == engine.LangMongoFind {
		results, err = eng.ValidateReader(plan, in)
	} else {
		results, err = eng.EvalReader(plan, in)
	}
	if err != nil {
		fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			fmt.Printf("line %d: error: %v\n", res.Line, res.Err)
			failures++
			continue
		}
		switch plan.Language() {
		case engine.LangMongoFind:
			verdict := "no match"
			if res.Valid {
				verdict = "match"
				matches++
			}
			fmt.Printf("line %d: %s\n", res.Line, verdict)
		default:
			vals := make([]string, len(res.Nodes))
			for i, n := range res.Nodes {
				vals[i] = res.Tree.Value(n).String()
			}
			fmt.Printf("line %d: %d selected\t%s\n", res.Line, len(res.Nodes), strings.Join(vals, " "))
		}
	}
	fmt.Fprintf(os.Stderr, "%d documents, %d errors\n", len(results), failures)
	if failures > 0 || (plan.Language() == engine.LangMongoFind && matches == 0 && len(results) > 0) {
		os.Exit(1)
	}
}

func openDoc(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func readDoc(path string) (*jsonval.Value, error) {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return jsonval.ParseBytes(data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsonq:", err)
	os.Exit(2)
}
