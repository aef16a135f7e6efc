package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"datacell"
	"datacell/internal/serve"
	"datacell/internal/workload"
)

// runRemoteShell drives a remote datacelld over the wire protocol. The
// command surface matches the local shell; FEED ships csv batches as
// columnar append frames, and continuous-query results stream back
// asynchronously over the subscription frames.
func runRemoteShell(addr string) error {
	cl, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("DataCell shell — connected to %s (HELP for commands)\n", addr)
	sh := &remoteShell{cl: cl, subs: map[string]*serve.Sub{}}
	return replLoop(sh)
}

type remoteShell struct {
	cl     *serve.Client
	subs   map[string]*serve.Sub
	nextID int
}

func (sh *remoteShell) helpLine() string {
	return "CREATE STREAM/TABLE name (col TYPE, ...) | REGISTER [REEVAL] SELECT ...; | SELECT ...; | FEED stream file [batch] | LOAD table file | UNSUB id | QUERIES | QUIT"
}

func (sh *remoteShell) exec(stmt string) {
	stmt = strings.TrimSuffix(stmt, ";")
	if strings.HasPrefix(strings.ToUpper(stmt), "REGISTER") {
		sh.register(stmt)
		return
	}
	detail, tbl, err := sh.cl.Stmt(stmt)
	switch {
	case err != nil:
		fmt.Println("error:", err)
	case tbl != nil:
		fmt.Print(tbl)
	default:
		fmt.Println(detail)
	}
}

func (sh *remoteShell) register(stmt string) {
	rest := strings.TrimSpace(stmt[len("REGISTER"):])
	opts := serve.RegisterOptions{}
	if strings.HasPrefix(strings.ToUpper(rest), "REEVAL") {
		opts.Mode = datacell.Reevaluation
		rest = strings.TrimSpace(rest[len("REEVAL"):])
	}
	sub, err := sh.cl.Register(rest, opts)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sh.nextID++
	id := fmt.Sprintf("q%d", sh.nextID)
	sh.subs[id] = sub
	// Window results arrive on the subscription's own frames; print them
	// as they land, interleaved with the prompt as the local shell does.
	go func() {
		for {
			r, err := sub.Recv(context.Background())
			if err != nil {
				return
			}
			fmt.Printf("[%s window %d, %v]\n%s", id, r.Window, r.Latency.Round(0), r.Table)
		}
	}()
	frag := sub.Fingerprint
	if frag == "" {
		frag = "-"
	}
	fmt.Printf("registered %s (subscription %d, fragment %s)\n", id, sub.ID, frag)
}

func (sh *remoteShell) command(line, upper string) bool {
	switch {
	case upper == "QUERIES":
		listing, err := sh.cl.Queries()
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Print(listing)
		}
	case strings.HasPrefix(upper, "UNSUB "):
		id := strings.TrimSpace(line[len("UNSUB"):])
		sub := sh.subs[id]
		if sub == nil {
			fmt.Printf("error: unknown subscription %q\n", id)
			return false
		}
		delete(sh.subs, id)
		if err := sh.cl.Unsubscribe(sub); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Printf("unsubscribed %s\n", id)
		}
	case strings.HasPrefix(upper, "CREATE STREAM "), strings.HasPrefix(upper, "CREATE TABLE "):
		detail, _, err := sh.cl.Stmt(line)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println(detail)
		}
	case strings.HasPrefix(upper, "FEED "):
		if err := sh.feed(line); err != nil {
			fmt.Println("error:", err)
		}
	case strings.HasPrefix(upper, "LOAD "):
		if err := sh.load(line); err != nil {
			fmt.Println("error:", err)
		}
	case upper == "RUN" || upper == "STOP":
		fmt.Println("error: the server owns its scheduler; RUN/STOP are local-shell commands")
	default:
		fmt.Println("error: unknown command (HELP for usage)")
	}
	return false
}

// feed ships csv rows to the server as columnar append frames — whole
// column batches on the wire, no per-row marshalling.
func (sh *remoteShell) feed(line string) error {
	stream, path, batch, err := parseFeed(line)
	if err != nil {
		return err
	}
	f, arity, err := probeCSV(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := workload.NewCSVReader(f, arity)
	for {
		cols, rerr := r.ReadBatch(batch)
		if cols[0].Len() > 0 {
			if err := sh.cl.Append(stream, nil, cols); err != nil {
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
	fmt.Printf("fed %d rows into %s\n", r.Rows(), stream)
	return nil
}

func (sh *remoteShell) load(line string) error {
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
			if err := sh.cl.InsertTable(table, nil, cols); err != nil {
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
