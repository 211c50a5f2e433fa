// Command benchmerge appends one benchmark record (JSON on stdin) to the
// dated record log in BENCH.json. The repo has no jq; this is the few
// lines of Go that replace it.
//
// Usage:
//
//	bench.sh builds a record and runs: go run ./tools/benchmerge -out BENCH.json < record.json
//
// The output file holds every recorded run, oldest first:
//
//	{"generated_by": "bench.sh", "records": [ {...}, {...} ]}
//
// Records are opaque to this tool beyond being valid JSON objects with one
// exception: every benchmark section must say what cpu budget it ran under.
// Wall-clock numbers without cpus/gomaxprocs are uninterpretable (the same
// run is several times slower on a smaller cpu budget), so an incoming
// record is rejected unless each object-valued section — each entry of
// "benchmarks", and every other top-level object section — carries numeric
// "cpus" and "gomaxprocs" fields. Records already in the log are not
// revalidated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type benchLog struct {
	GeneratedBy string            `json:"generated_by"`
	Records     []json.RawMessage `json:"records"`
}

func run(out string, in io.Reader) error {
	raw, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	var record map[string]any
	if err := json.Unmarshal(raw, &record); err != nil {
		return fmt.Errorf("stdin is not a JSON object: %w", err)
	}
	if err := validate(record); err != nil {
		return err
	}
	compact, err := json.Marshal(record)
	if err != nil {
		return err
	}

	log := benchLog{GeneratedBy: "bench.sh"}
	if prev, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(prev, &log); err != nil {
			return fmt.Errorf("%s is not a benchmerge log: %w", out, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	log.Records = append(log.Records, compact)

	buf, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(buf, '\n'), 0o644)
}

// validate rejects records whose benchmark sections omit the cpu budget:
// each entry of "benchmarks" and every other top-level object-valued
// section needs numeric "cpus" and "gomaxprocs".
func validate(record map[string]any) error {
	check := func(section string, v any) error {
		obj, ok := v.(map[string]any)
		if !ok {
			return nil // scalar metadata ("date", "rounds", ...) — no budget to record
		}
		for _, field := range []string{"cpus", "gomaxprocs"} {
			if _, ok := obj[field].(float64); !ok {
				return fmt.Errorf("section %q is missing numeric %q; bench.sh must record the cpu budget per section", section, field)
			}
		}
		return nil
	}
	for key, v := range record {
		if key == "benchmarks" {
			benches, ok := v.(map[string]any)
			if !ok {
				return fmt.Errorf(`"benchmarks" is not a JSON object`)
			}
			for name, b := range benches {
				if err := check("benchmarks."+name, b); err != nil {
					return err
				}
			}
			continue
		}
		if err := check(key, v); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	out := flag.String("out", "BENCH.json", "benchmark log to append to")
	flag.Parse()
	if err := run(*out, os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmerge:", err)
		os.Exit(1)
	}
}
