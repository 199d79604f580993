package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"rankfair"
	"rankfair/internal/service"
)

// daemon is rankfaird booted in-process the way cmd/rankfaird wires it
// (service.New plus Handler on a listener), bound to loopback and driven
// by one client over one keep-alive connection.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	// body is the reused response buffer, so the client adds little
	// garbage to the heap it shares with the daemon.
	body bytes.Buffer

	// datasets are the uploaded tables' records, in Plan.Tables order.
	datasets []service.DatasetInfo
	// warmJobs are the set-up audits' job IDs, in Plan.Warmups order.
	warmJobs []string
}

// boot starts the daemon with the default configuration.
func boot() (*daemon, error) {
	svc, err := service.New(service.Config{})
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close stops the server and the service and waits for both.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.svc.Shutdown(ctx))
}

// call sends one request and returns the status and the whole body. The
// body aliases a buffer the next call reuses; callers copy what they keep.
func (d *daemon) call(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	d.body.Reset()
	_, err = d.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, d.body.Bytes(), err
}

// callJSON sends one request, requires a 2xx status and decodes the body
// into v when v is not nil.
func (d *daemon) callJSON(method, path, contentType string, body []byte, v any) error {
	status, out, err := d.call(method, path, contentType, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, status, out)
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return nil
}

// upload posts a CSV table and returns its dataset record.
func (d *daemon) upload(csv []byte, query string) (service.DatasetInfo, error) {
	var info service.DatasetInfo
	err := d.callJSON("POST", "/v1/datasets?"+query, "text/csv", csv, &info)
	return info, err
}

func (d *daemon) auditBody(dataset int, params rankfair.AuditParams) []byte {
	body, _ := json.Marshal(service.AuditRequest{Dataset: d.datasets[dataset].ID, Ranker: rankerSpec, Params: params})
	return body
}

// audit runs one audit to completion and requires it to finish done.
func (d *daemon) audit(dataset int, params rankfair.AuditParams) (service.JobView, error) {
	var v service.JobView
	if err := d.callJSON("POST", "/v1/audits?wait=true", "application/json", d.auditBody(dataset, params), &v); err != nil {
		return v, err
	}
	if v.Status != service.JobDone {
		return v, fmt.Errorf("audit %s ended %s: %s", v.ID, v.Status, v.Error)
	}
	return v, nil
}

// report fetches a finished audit's report body.
func (d *daemon) report(jobID string) ([]byte, error) {
	status, out, err := d.call("GET", "/v1/audits/"+jobID+"/report", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("report %s: status %d: %.200s", jobID, status, out)
	}
	return out, nil
}

// setUp boots a daemon and brings it to the state the measured phases
// start from: tables uploaded, every warm-up audit done, and the analyst
// cache holding the warm analysts the measured ops reuse.
func setUp(p *Plan) (*daemon, error) {
	d, err := boot()
	if err != nil {
		return nil, err
	}
	for _, csv := range p.Tables {
		info, err := d.upload(csv, p.Query)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.datasets = append(d.datasets, info)
	}
	for _, w := range p.Warmups {
		v, err := d.audit(w.Dataset, w.Params)
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.warmJobs = append(d.warmJobs, v.ID)
	}
	return d, nil
}
