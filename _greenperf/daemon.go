package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs/live"
	"repro/internal/obs/ops"
	"repro/internal/suite"
)

// clients is the number of closed-loop clients driving the daemon; each
// holds one connection at a time.
const clients = 2

// daemon is an in-process campaign server on loopback, built the way
// greenbench -daemon builds it: a manager with two job slots, fronted by
// the HTTP server, both reporting to one operational telemetry bundle.
type daemon struct {
	m    *campaign.Manager
	srv  *campaign.Server
	ops  *ops.Telemetry
	base string
}

func startDaemon(dir string) (*daemon, error) {
	tel := ops.New()
	m, err := campaign.NewManager(campaign.ManagerConfig{Dir: dir, MaxConcurrent: 2, Ops: tel})
	if err != nil {
		return nil, err
	}
	srv, err := campaign.NewServer(campaign.ServerConfig{Addr: "127.0.0.1:0", Manager: m, Ops: tel})
	if err != nil {
		m.Close()
		return nil, err
	}
	return &daemon{m: m, srv: srv, ops: tel, base: "http://" + srv.Addr()}, nil
}

// close stops the server, then the manager (waiting for its jobs), then
// the telemetry bundle.
func (d *daemon) close() {
	d.srv.Close()
	d.m.Close()
	d.ops.Close()
}

// jobRecord is what a client observed of one job.
type jobRecord struct {
	id  string
	dir string
	// submit is the POST /jobs round trip; latency runs from the POST
	// until the terminal event arrives on the job's event stream.
	submit   time.Duration
	latency  time.Duration
	terminal time.Time
	events   int
	// status is the job's final GET /jobs/{id} view (traced runs only).
	status campaign.Status
	err    error
}

// client is one closed-loop daemon client.
type client struct {
	base string
	http *http.Client
	body []byte
}

func newClient(base string, body []byte) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr}, body: body}
}

func (c *client) close() { c.http.CloseIdleConnections() }

var terminalKind = []byte(`"kind":"` + string(live.KindJobFinished) + `"`)

// runJob submits one job, streams its events until the stream ends, and
// with withStatus fetches the job's final status.
func (c *client) runJob(withStatus bool) jobRecord {
	var jr jobRecord
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(c.body))
	if err != nil {
		jr.err = err
		return jr
	}
	var st campaign.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	jr.submit = time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		jr.err = fmt.Errorf("POST /jobs: status %d, decode error %v", resp.StatusCode, err)
		return jr
	}
	jr.id, jr.dir = st.ID, st.Dir
	resp, err = c.http.Get(c.base + "/jobs/" + st.ID + "/events")
	if err != nil {
		jr.err = err
		return jr
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		jr.events++
		line := sc.Bytes()
		if state != "" || !bytes.Contains(line, terminalKind) {
			continue
		}
		jr.latency, jr.terminal = time.Since(t0), time.Now()
		var ev live.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			jr.err = fmt.Errorf("terminal event: %w", err)
		}
		for _, a := range ev.Attrs {
			if a.Key == "state" {
				state = a.Value
			}
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse; Scan has reported the error
	resp.Body.Close()
	switch {
	case jr.err != nil:
		return jr
	case sc.Err() != nil:
		jr.err = fmt.Errorf("event stream of %s: %w", jr.id, sc.Err())
		return jr
	case state != string(campaign.StateDone):
		jr.err = fmt.Errorf("job %s ended in state %q", jr.id, state)
		return jr
	}
	if withStatus {
		resp, err := c.http.Get(c.base + "/jobs/" + st.ID)
		if err != nil {
			jr.err = err
			return jr
		}
		err = json.NewDecoder(resp.Body).Decode(&jr.status)
		resp.Body.Close()
		if err != nil {
			jr.err = fmt.Errorf("GET /jobs/%s: %w", jr.id, err)
		}
	}
	return jr
}

// driveDaemon runs the closed loop: each client submits a job, streams
// it to the end and submits the next, until the deadline has passed and
// the client has run at least minJobs jobs. It returns every job in
// completion order and the loop's wall time.
func driveDaemon(d *daemon, body []byte, budget time.Duration, minJobs int, withStatus bool) ([]jobRecord, time.Duration) {
	var (
		mu   sync.Mutex
		jobs []jobRecord
		wg   sync.WaitGroup
	)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(d.base, body)
			defer cl.close()
			for n := 0; n < minJobs || time.Since(start) < budget; n++ {
				jr := cl.runJob(withStatus)
				mu.Lock()
				jobs = append(jobs, jr)
				mu.Unlock()
				if jr.err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start)
}

// checkJob is the correctness gate of one daemon job.
func checkJob(ref *reference, jr jobRecord) error {
	if jr.err != nil {
		return jr.err
	}
	results, err := suite.LoadJSON(filepath.Join(jr.dir, campaign.ResultsFile))
	if err != nil {
		return err
	}
	if err := ref.check(jr.dir, results); err != nil {
		return fmt.Errorf("job %s: %w", jr.id, err)
	}
	return nil
}

// runDaemon measures the daemon workload end to end: two closed-loop
// clients for the time budget. Every job's artefacts are checked after
// the loop, so checking never slows the clients.
func runDaemon(in *inputs, ref *reference, dir string, budget time.Duration) (*endToEnd, error) {
	d, err := startDaemon(filepath.Join(dir, "jobs"))
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(in.job)
	if err != nil {
		d.close()
		return nil, err
	}
	u0 := readUsage()
	jobs, wall := driveDaemon(d, body, budget, minCampaigns/clients, false)
	use := readUsage().sub(u0)
	d.close()
	e := &endToEnd{busy: wall, use: use}
	for _, jr := range jobs {
		if jr.err == nil {
			e.latencies = append(e.latencies, ms(jr.latency))
			e.cells += in.cellsPerCampaign()
		}
		e.op(checkJob(ref, jr))
	}
	return e, nil
}
