// Command repl is the interactive SQL front door. By default it opens a
// fresh in-memory database and executes statements in a local session;
// with -connect it speaks the wire protocol to a running server instead.
//
// Usage:
//
//	repl                         # local in-memory database
//	repl -devices 4              # local, on a 4-device array (SET parallel = 3)
//	repl -connect 127.0.0.1:7878 # talk to cmd/server
//	repl -f setup.sql            # run a script, then exit
//	repl -f setup.sql -i         # run a script, then go interactive
//	echo 'SELECT 1;' | repl -q   # scriptable: no prompts or banners
//
// Statements may span lines and end with ';'. A line containing only \q
// (or quit / exit) leaves the REPL.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bulkdel"
	"bulkdel/internal/session"
	"bulkdel/internal/sql"
	"bulkdel/internal/wire"
)

// executor abstracts the two back ends: a local session or a wire client.
type executor interface {
	Exec(src string) (*session.Result, error)
}

func main() {
	devices := flag.Int("devices", 1, "simulated disk devices (local mode)")
	connect := flag.String("connect", "", "connect to a wire server instead of opening a local database")
	script := flag.String("f", "", "execute statements from this file")
	interactive := flag.Bool("i", false, "stay interactive after -f")
	quiet := flag.Bool("q", false, "no prompts or banner (for piped input)")
	flag.Parse()

	var exec executor
	switch {
	case *connect != "":
		c, err := wire.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, "connect:", err)
			os.Exit(1)
		}
		defer c.Close()
		exec = c
		if !*quiet {
			fmt.Printf("connected to %s\n", *connect)
		}
	default:
		db, err := bulkdel.Open(bulkdel.Options{Devices: *devices})
		if err != nil {
			fmt.Fprintln(os.Stderr, "open:", err)
			os.Exit(1)
		}
		s := session.NewFrontend(db).NewSession(context.Background())
		defer s.Close()
		exec = s
		if !*quiet {
			fmt.Printf("in-memory database (devices=%d); end statements with ';', \\q quits\n", *devices)
		}
	}

	if *script != "" {
		src, err := os.ReadFile(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !runAll(exec, string(src), os.Stdout) {
			os.Exit(1)
		}
		if !*interactive {
			return
		}
	}

	repl(exec, os.Stdin, os.Stdout, *quiet)
}

// runAll executes every statement in src, printing results; it keeps
// going past statement errors and reports whether all succeeded.
func runAll(exec executor, src string, out io.Writer) bool {
	ok := true
	for _, stmt := range sql.SplitStatements(src) {
		if !runOne(exec, stmt, out) {
			ok = false
		}
	}
	return ok
}

func runOne(exec executor, stmt string, out io.Writer) bool {
	res, err := exec.Exec(stmt)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return false
	}
	io.WriteString(out, res.Format())
	return true
}

func repl(exec executor, in io.Reader, out io.Writer, quiet bool) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if quiet {
			return
		}
		if buf.Len() == 0 {
			io.WriteString(out, "sql> ")
		} else {
			io.WriteString(out, "  -> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		if buf.Len() == 0 {
			switch strings.TrimSpace(line) {
			case `\q`, "quit", "exit":
				return
			case "":
				prompt()
				continue
			}
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		// A statement ends at a ';' on the end of a line; SplitStatements
		// handles several on one line and ';' inside strings or comments.
		if strings.HasSuffix(strings.TrimRight(line, " \t"), ";") {
			runAll(exec, buf.String(), out)
			buf.Reset()
		}
		prompt()
	}
	// EOF with a dangling unterminated statement: run what's there.
	if strings.TrimSpace(buf.String()) != "" {
		runAll(exec, buf.String(), out)
	}
	if !quiet {
		io.WriteString(out, "\n")
	}
}
