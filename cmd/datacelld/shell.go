package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"datacell"
	"datacell/internal/serve"
	"datacell/internal/vector"
	"datacell/internal/workload"
)

// runLocalShell drives an in-process engine from stdin.
func runLocalShell() error {
	db := datacell.New()
	sh := &localShell{db: db, queries: map[string]*datacell.Query{}}
	fmt.Println("DataCell shell — HELP for commands")
	err := replLoop(sh)
	sh.close()
	return err
}

// shellHandler is the mode-independent REPL surface: the local and remote
// shells implement the same commands over different transports.
type shellHandler interface {
	// exec handles one ';'-terminated SQL statement.
	exec(stmt string)
	// command handles one non-SQL command line; quit reports QUIT/EXIT.
	command(line, upper string) (quit bool)
	helpLine() string
}

// replLoop reads commands, accumulating ';'-terminated SQL across lines.
func replLoop(sh shellHandler) error {
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	for {
		if pending.Len() == 0 {
			fmt.Print("datacell> ")
		} else {
			fmt.Print("      ... ")
		}
		if !in.Scan() {
			return in.Err()
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		if pending.Len() > 0 || strings.HasPrefix(upper, "SELECT") || strings.HasPrefix(upper, "REGISTER") {
			pending.WriteString(line)
			pending.WriteByte(' ')
			if !strings.HasSuffix(line, ";") {
				continue
			}
			stmt := strings.TrimSpace(pending.String())
			pending.Reset()
			sh.exec(stmt)
			continue
		}
		switch {
		case upper == "QUIT" || upper == "EXIT":
			return nil
		case upper == "HELP":
			fmt.Println(sh.helpLine())
		default:
			if quit := sh.command(line, upper); quit {
				return nil
			}
		}
	}
}

type localShell struct {
	db       *datacell.DB
	queries  map[string]*datacell.Query
	nextID   int
	printers sync.WaitGroup // one per query, printing its windows
}

// close stops the scheduler and closes every query, then waits for each
// printer to print what its query has left, so no window is lost on exit.
func (sh *localShell) close() {
	sh.db.Stop()
	for _, q := range sh.queries {
		q.Close()
	}
	sh.printers.Wait()
}

func (sh *localShell) helpLine() string {
	return "CREATE STREAM/TABLE name (col TYPE, ...) | REGISTER [REEVAL] SELECT ...; | SELECT ...; | FEED stream file [batch] | LOAD table file | RUN | STOP | QUERIES | QUIT"
}

func (sh *localShell) exec(stmt string) {
	stmt = strings.TrimSuffix(stmt, ";")
	if strings.HasPrefix(strings.ToUpper(stmt), "REGISTER") {
		sh.register(stmt)
		return
	}
	detail, tbl, err := serve.ExecStatement(sh.db, stmt)
	switch {
	case err != nil:
		fmt.Println("error:", err)
	case tbl != nil:
		fmt.Print(tbl)
	default:
		fmt.Println(detail)
	}
}

func (sh *localShell) register(stmt string) {
	rest := strings.TrimSpace(stmt[len("REGISTER"):])
	opts := datacell.Options{}
	if strings.HasPrefix(strings.ToUpper(rest), "REEVAL") {
		opts.Mode = datacell.Reevaluation
		rest = strings.TrimSpace(rest[len("REEVAL"):])
	}
	q, err := sh.db.Register(rest, opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sh.nextID++
	id := fmt.Sprintf("q%d", sh.nextID)
	sh.queries[id] = q
	results, err := q.Subscribe(context.Background(), datacell.SubOptions{Buffer: 64})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	// Windows print as they land, interleaved with the prompt.
	sh.printers.Add(1)
	go func() {
		defer sh.printers.Done()
		for r := range results {
			fmt.Printf("[%s window %d, %v]\n%s", id, r.Window, r.Latency.Round(0), r.Table)
		}
	}()
	fmt.Printf("registered %s (%s)\n", id, q.Mode())
}

func (sh *localShell) command(line, upper string) bool {
	switch {
	case upper == "RUN":
		sh.db.Run()
		fmt.Println("scheduler running (one worker per slide group)")
	case upper == "STOP":
		sh.db.Stop()
		// Stop abandons the drain after at most one step per query; finish
		// any ready windows synchronously so STOP is deterministic.
		if _, err := sh.db.Pump(); err != nil {
			fmt.Println("scheduler stopped with error:", err)
		} else if err := sh.db.Err(); err != nil {
			fmt.Println("scheduler stopped with error:", err)
		} else {
			fmt.Println("scheduler stopped")
		}
	case upper == "QUERIES":
		fmt.Print(sh.queryList())
	case strings.HasPrefix(upper, "CREATE STREAM "), strings.HasPrefix(upper, "CREATE TABLE "):
		detail, _, err := serve.ExecStatement(sh.db, line)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println(detail)
		}
	case strings.HasPrefix(upper, "FEED "):
		if err := runFeed(sh.db, line); err != nil {
			fmt.Println("error:", err)
		}
	case strings.HasPrefix(upper, "LOAD "):
		if err := runLoad(sh.db, line); err != nil {
			fmt.Println("error:", err)
		}
	default:
		fmt.Println("error: unknown command (HELP for usage)")
	}
	return false
}

// queryList renders the registered queries sorted by ID, so repeated
// QUERIES calls print in a stable order regardless of map iteration.
func (sh *localShell) queryList() string {
	ids := make([]string, 0, len(sh.queries))
	for id := range sh.queries {
		ids = append(ids, id)
	}
	// IDs are q1, q2, ...: numeric order is length-then-lexicographic.
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	var sb strings.Builder
	for _, id := range ids {
		q := sh.queries[id]
		status := ""
		if err := q.Err(); err != nil {
			status = fmt.Sprintf(", FAILED: %v", err)
		}
		fmt.Fprintf(&sb, "%s [%s, %d windows%s]: %s\n", id, q.Mode(), q.Windows(), status, q.SQL())
	}
	if sb.Len() == 0 {
		return "(no queries)\n"
	}
	return sb.String()
}

// --- csv ingest (local mode) -----------------------------------------------

// probeCSV opens a csv file, rejects empty inputs with a clear error, and
// returns the file (rewound) plus the column arity of the first line.
func probeCSV(path string) (*os.File, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(f)
	first, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		f.Close()
		return nil, 0, err
	}
	if strings.TrimSpace(first) == "" {
		f.Close()
		return nil, 0, fmt.Errorf("csv file %q is empty", path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, strings.Count(first, ",") + 1, nil
}

func parseFeed(line string) (stream, path string, batch int, err error) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return "", "", 0, fmt.Errorf("usage: FEED stream file.csv [batch]")
	}
	stream, path = strings.ToLower(fields[1]), fields[2]
	batch = 1024
	if len(fields) > 3 {
		if b, err := strconv.Atoi(fields[3]); err == nil && b > 0 {
			batch = b
		}
	}
	return stream, path, batch, nil
}

func runFeed(db *datacell.DB, line string) error {
	stream, path, batch, err := parseFeed(line)
	if err != nil {
		return err
	}
	rows, err := feedCSV(db, stream, path, batch)
	if err != nil {
		return err
	}
	fmt.Printf("fed %d rows into %s\n", rows, stream)
	return nil
}

// feedCSV streams integer csv rows into a stream through the columnar
// Source/Batch ingest path, honoring the user's per-append batch size
// (each AppendBatch shares one arrival timestamp). With the concurrent
// scheduler running, appending is enough — each query's worker fires as
// its baskets fill; otherwise it pumps synchronously after each batch so
// results interleave with loading.
func feedCSV(db *datacell.DB, stream, path string, batch int) (int64, error) {
	f, arity, err := probeCSV(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return db.Attach(context.Background(), stream, workload.NewCSVSource(f, arity),
		datacell.AttachOptions{
			BatchRows: batch,
			AfterBatch: func() error {
				if db.Running() {
					return nil // workers fire as baskets fill
				}
				_, err := db.Pump()
				return err
			},
		})
}

func runLoad(db *datacell.DB, line string) error {
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return fmt.Errorf("usage: LOAD table file.csv")
	}
	table, path := strings.ToLower(fields[1]), fields[2]
	f, arity, err := probeCSV(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := workload.NewCSVReader(f, arity)
	for {
		cols, rerr := r.ReadBatch(4096)
		if cols[0].Len() > 0 {
			if err := db.InsertRows(table, colsToRows(cols)...); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	fmt.Printf("loaded %d rows into %s\n", r.Rows(), table)
	return nil
}

func colsToRows(cols []*vector.Vector) [][]datacell.Value {
	n := cols[0].Len()
	rows := make([][]datacell.Value, n)
	for i := 0; i < n; i++ {
		row := make([]datacell.Value, len(cols))
		for c, col := range cols {
			row[c] = col.Get(i)
		}
		rows[i] = row
	}
	return rows
}
