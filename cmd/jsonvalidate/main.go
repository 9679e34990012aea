// Command jsonvalidate validates JSON documents against a JSON Schema
// (the Table 1 fragment of the paper) or a JSL formula. JSL validation
// runs through the shared engine layer: the formula is compiled once
// into a plan and evaluated per document.
//
// Usage:
//
//	jsonvalidate -schema schema.json doc1.json doc2.json   (use - for stdin) …
//	jsonvalidate -jsl 'object && some("name", string)' doc.json
//	jsonvalidate -schema schema.json -via-jsl doc.json
//	jsonvalidate -jsl 'some("v", number)' -ndjson batch.ndjson
//
// With -via-jsl, the schema is first translated to JSL (Theorem 1) and
// validation runs through the logic — useful for confirming the two
// paths agree. With -ndjson, each named file (or stdin) holds one JSON
// document per line; lines are validated in parallel by the engine's
// worker pool and reported in input order. The exit status is 0 when
// all documents validate.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"jsonlogic/internal/engine"
	"jsonlogic/internal/jsontree"
	"jsonlogic/internal/jsonval"
	"jsonlogic/internal/schema"
)

func main() {
	schemaPath := flag.String("schema", "", "JSON Schema file")
	jslSrc := flag.String("jsl", "", "JSL formula (alternative to -schema)")
	viaJSL := flag.Bool("via-jsl", false, "validate through the Theorem 1 translation")
	ndjson := flag.Bool("ndjson", false, "inputs are newline-delimited JSON; validate lines in parallel")
	flag.Parse()

	if (*schemaPath == "") == (*jslSrc == "") {
		fatal(fmt.Errorf("exactly one of -schema or -jsl is required"))
	}
	if flag.NArg() == 0 {
		fatal(fmt.Errorf("no documents to validate"))
	}

	eng := engine.New(engine.Options{})

	// plan is non-nil when validation runs through the engine; validate
	// is the fallback for the direct schema validator.
	var plan *engine.Plan
	var validate func(doc *jsonval.Value) (bool, error)
	switch {
	case *jslSrc != "":
		p, err := eng.Compile(engine.LangJSL, *jslSrc)
		if err != nil {
			fatal(err)
		}
		plan = p
	default:
		data, err := os.ReadFile(*schemaPath)
		if err != nil {
			fatal(err)
		}
		s, err := schema.Parse(string(data))
		if err != nil {
			fatal(err)
		}
		if *viaJSL || *ndjson {
			// The parallel NDJSON path always runs through the logic;
			// Theorem 1 guarantees the translation is equivalent to the
			// direct validator.
			r, err := s.ToJSL()
			if err != nil && *viaJSL {
				fatal(err)
			}
			if err == nil {
				plan, err = engine.FromJSL(*schemaPath, r)
				if err != nil {
					fatal(err)
				}
				break
			}
		}
		validate = s.Validate
	}

	failures := 0
	for _, path := range flag.Args() {
		if *ndjson && plan != nil {
			failures += validateNDJSON(eng, plan, path)
			continue
		}
		failures += validateWhole(eng, plan, validate, path, *ndjson)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// validateWhole validates one file holding one document (or, for the
// direct schema validator with -ndjson, line by line sequentially).
func validateWhole(eng *engine.Engine, plan *engine.Plan, validate func(*jsonval.Value) (bool, error), path string, ndjson bool) int {
	data, err := readInput(path)
	if err != nil {
		fatal(err)
	}
	if ndjson {
		// Direct-validator fallback for untranslatable schemas. Blank
		// (whitespace-only) lines are skipped, matching the engine path.
		failures := 0
		for line, chunk := range bytes.Split(data, []byte("\n")) {
			chunk = bytes.TrimSpace(chunk)
			if len(chunk) == 0 {
				continue
			}
			failures += validateOne(eng, plan, validate, fmt.Sprintf("%s:%d", path, line+1), chunk)
		}
		return failures
	}
	return validateOne(eng, plan, validate, path, data)
}

func validateOne(eng *engine.Engine, plan *engine.Plan, validate func(*jsonval.Value) (bool, error), name string, data []byte) int {
	doc, err := jsonval.ParseBytes(data)
	if err != nil {
		fmt.Printf("%s: parse error: %v\n", name, err)
		return 1
	}
	var ok bool
	if plan != nil {
		ok, err = eng.Validate(context.Background(), plan, jsontree.FromValue(doc))
	} else {
		ok, err = validate(doc)
	}
	if err != nil {
		fatal(err)
	}
	if ok {
		fmt.Printf("%s: valid\n", name)
		return 0
	}
	fmt.Printf("%s: INVALID\n", name)
	return 1
}

// validateNDJSON streams one NDJSON file through the engine's parallel
// batch validator.
func validateNDJSON(eng *engine.Engine, plan *engine.Plan, path string) int {
	in, err := openInput(path)
	if err != nil {
		fatal(err)
	}
	defer in.Close()
	results, err := eng.ValidateReader(plan, in)
	if err != nil {
		fatal(err)
	}
	failures := 0
	for _, res := range results {
		switch {
		case res.Err != nil:
			fmt.Printf("%s:%d: parse error: %v\n", path, res.Line, res.Err)
			failures++
		case res.Valid:
			fmt.Printf("%s:%d: valid\n", path, res.Line)
		default:
			fmt.Printf("%s:%d: INVALID\n", path, res.Line)
			failures++
		}
	}
	return failures
}

func openInput(path string) (io.ReadCloser, error) {
	if path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsonvalidate:", err)
	os.Exit(2)
}
