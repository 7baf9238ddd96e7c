// Package daemon starts a gpuscoutd process, talks to it over its HTTP
// API and stops it. It uses the standard library only.
package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpuscout/perfbench/internal/plan"
)

// Daemon is one running gpuscoutd process, started with every setting
// at its default except -fsync never: on a shared virtual disk single
// fsyncs stall for tens of milliseconds at the whim of other tenants,
// and those stalls, not the daemon, would set the latency tail.
type Daemon struct {
	Base   string // http://127.0.0.1:port
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
	client *http.Client
}

// Start execs the gpuscoutd binary on a fresh, empty data directory
// and returns once /readyz answers 200, together with the time from
// exec to that answer. The port is picked free just before the exec; a
// daemon that loses it to another socket in between exits at once, and
// Start tries again on a new port.
func Start(binary, dataDir string) (*Daemon, time.Duration, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *Daemon
		var ready time.Duration
		d, ready, err = start(binary, dataDir)
		if err == nil {
			return d, ready, nil
		}
		if !errors.Is(err, errAddrInUse) {
			break
		}
	}
	return nil, 0, err
}

var errAddrInUse = errors.New("address already in use")

func start(binary, dataDir string) (*Daemon, time.Duration, error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return nil, 0, fmt.Errorf("clear data dir: %w", err)
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, 0, fmt.Errorf("create daemon log: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(binary, "-addr", addr, "-data-dir", dataDir, "-fsync", "never")
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &Daemon{
		Base:   "http://" + addr,
		cmd:    cmd,
		log:    logf,
		exited: make(chan struct{}),
		client: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     plan.DaemonClients,
				MaxIdleConnsPerHost: plan.DaemonClients,
			},
		},
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start gpuscoutd: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we stop is not informative
		close(d.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.Base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			out, _ := os.ReadFile(logf.Name()) // best effort: the log explains the exit
			if bytes.Contains(out, []byte(errAddrInUse.Error())) {
				return nil, 0, fmt.Errorf("gpuscoutd on %s: %w", addr, errAddrInUse)
			}
			return nil, 0, fmt.Errorf("gpuscoutd exited before it was ready: %s", bytes.TrimSpace(out))
		case <-time.After(250 * time.Microsecond):
		}
		if time.Since(t0) > time.Minute {
			d.Stop()
			return nil, 0, errors.New("gpuscoutd not ready after a minute")
		}
	}
}

// Stop sends SIGTERM, waits for the process to exit (SIGKILL after 15
// s) and closes its log.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.client.CloseIdleConnections()
	d.log.Close()
}

// PeakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (d *Daemon) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read daemon status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in the daemon's status")
}

// Status is the part of a job status the benchmark reads.
type Status struct {
	State        string          `json:"state"`
	CacheHit     bool            `json:"cache_hit"`
	Error        string          `json:"error"`
	Degradations int             `json:"degradations"`
	Report       json.RawMessage `json:"report"`
}

// Response is the outcome of one request: the HTTP code and, for a
// 200, one Status per analysis item (one, or one per batch item).
type Response struct {
	Code  int
	Items []Status
}

// Do posts one request and reads the whole answer: its HTTP code and
// body.
func (d *Daemon) Do(req plan.DaemonRequest) (int, []byte, error) {
	body, err := req.Body()
	if err != nil {
		return 0, nil, fmt.Errorf("encode request: %w", err)
	}
	resp, err := d.client.Post(d.Base+req.Path(), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read answer: %w", err)
	}
	return resp.StatusCode, data, nil
}

// Decode parses a 200 answer into one Status per analysis item.
func Decode(req plan.DaemonRequest, code int, data []byte) (Response, error) {
	out := Response{Code: code}
	if code != http.StatusOK {
		return out, nil
	}
	if req.Kind == plan.KindBatch {
		var b struct {
			Results []Status `json:"results"`
		}
		if err := json.Unmarshal(data, &b); err != nil {
			return out, fmt.Errorf("decode batch answer: %w", err)
		}
		out.Items = b.Results
		return out, nil
	}
	var s Status
	if err := decodeStatus(data, &s); err != nil {
		return out, fmt.Errorf("decode answer: %w", err)
	}
	out.Items = []Status{s}
	return out, nil
}

// reportField opens the last, top-level field of an indented job
// status: the report, which is most of the answer's bytes.
var reportField = []byte("\n  \"report\": ")

// decodeStatus splits the report off the status before decoding the
// rest, so the load generator does not scan every report while the run
// is measured; DigestReport validates the report afterwards. An answer
// laid out differently is decoded whole.
func decodeStatus(data []byte, s *Status) error {
	i := bytes.Index(data, reportField)
	end := bytes.LastIndexByte(data, '}')
	if i < 0 || end < i {
		return json.Unmarshal(data, s)
	}
	head := append(bytes.TrimRight(data[:i:i], " \n,"), '}')
	if err := json.Unmarshal(head, s); err != nil {
		return err
	}
	s.Report = bytes.TrimSpace(data[i+len(reportField) : end])
	return nil
}

// Check validates an answer against its request and returns the digest
// of every item; an error means the answer is wrong or incomplete.
func Check(req plan.DaemonRequest, resp Response) ([]plan.Digest, error) {
	return checkMemo(req, resp, nil)
}

// checkMemo is Check with digests memoized by report (the interned
// reports of one run share their backing arrays); memo may be nil.
func checkMemo(req plan.DaemonRequest, resp Response, memo map[*byte]plan.Digest) ([]plan.Digest, error) {
	if resp.Code != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.Code)
	}
	if len(resp.Items) != len(req.Items) {
		return nil, fmt.Errorf("%d answers for %d items", len(resp.Items), len(req.Items))
	}
	out := make([]plan.Digest, len(req.Items))
	for i, st := range resp.Items {
		if st.State != "done" {
			return nil, fmt.Errorf("item %d: state %s: %s", i, st.State, st.Error)
		}
		if st.Degradations > 0 {
			return nil, fmt.Errorf("item %d: degraded report (%d ledger entries)", i, st.Degradations)
		}
		if len(st.Report) == 0 {
			return nil, fmt.Errorf("item %d: no report", i)
		}
		dg, ok := memo[&st.Report[0]]
		if !ok {
			var err error
			if dg, err = plan.DigestReport(st.Report, req.Items[i].Workload != ""); err != nil {
				return nil, fmt.Errorf("item %d: %w", i, err)
			}
			if memo != nil {
				memo[&st.Report[0]] = dg
			}
		}
		out[i] = dg
	}
	return out, nil
}

// Counters scrapes /metrics and returns every sample by its series name
// (labels included, as printed).
func (d *Daemon) Counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.Base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return out, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// Outcome is the result of one open-loop request.
type Outcome struct {
	LatencyMS float64       // due time to the whole answer read
	LagMS     float64       // due time to send: how late the generator ran
	End       time.Duration // completion, as an offset from the run's start
	Digests   []plan.Digest // one per item, when the answer is correct
	Hits      int           // items answered from a cache tier
	Err       error         // why the request failed, if it did
	// Wrong marks a failure that is a wrong answer (a correctness-gate
	// violation) rather than a refusal under load or a transport error.
	Wrong bool

	resp Response
}

// OpenLoop sends every request of sched at its due time, over at most
// plan.DaemonClients concurrent connections, and returns one outcome
// per request. A request whose due time passes while every connection
// is busy is sent as soon as one frees up; its latency still counts
// from the due time. Answers are checked after the last one arrives,
// so the checks take no CPU from the daemon while it is measured.
func OpenLoop(d *Daemon, sched []plan.DaemonRequest) []Outcome {
	outs := make([]Outcome, len(sched))
	reports := newInterner()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < plan.DaemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].Due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				code, body, err := d.Do(sched[i])
				done := time.Now()
				o := Outcome{
					LatencyMS: float64(done.Sub(due)) / float64(time.Millisecond),
					LagMS:     float64(sent.Sub(due)) / float64(time.Millisecond),
					End:       done.Sub(start),
				}
				switch {
				case err != nil:
					o.Err = err
				case refused(code):
					o.Err = fmt.Errorf("refused: HTTP %d", code)
				default:
					o.resp, o.Err = Decode(sched[i], code, body)
					o.Wrong = o.Err != nil
					for j := range o.resp.Items {
						o.resp.Items[j].Report = reports.intern(o.resp.Items[j].Report)
					}
				}
				outs[i] = o
			}
		}()
	}
	wg.Wait()

	digests := map[*byte]plan.Digest{}
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			continue
		}
		o.Digests, o.Err = checkMemo(sched[i], o.resp, digests)
		o.Wrong = o.Err != nil
		for _, st := range o.resp.Items {
			if st.CacheHit {
				o.Hits++
			}
		}
		o.resp = Response{}
	}
	return outs
}

// interner keeps one copy of each distinct report, so a run holds the
// reports it received, not every answer's bytes.
type interner struct {
	mu   sync.Mutex
	seed maphash.Seed
	seen map[uint64][][]byte
}

func newInterner() *interner {
	return &interner{seed: maphash.MakeSeed(), seen: map[uint64][][]byte{}}
}

func (in *interner) intern(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	h := maphash.Bytes(in.seed, b)
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, prev := range in.seen[h] {
		if bytes.Equal(prev, b) {
			return prev
		}
	}
	c := append([]byte(nil), b...)
	in.seen[h] = append(in.seen[h], c)
	return c
}

// refused reports whether an HTTP code is load shedding or an expired
// deadline — a failed request, but not a wrong answer.
func refused(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}
