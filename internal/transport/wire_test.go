package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/distrib"
)

// handPlayedVendor returns, per agent implementation (a real Agent and a
// SimFleet agent), a function that connects one agent over loopback TCP
// and returns the vendor side of its control channel, the registration
// frame already read. The test plays the vendor by hand on it.
func handPlayedVendor() map[string]func(t *testing.T) (*net.TCPConn, *bufio.Reader) {
	accept := func(t *testing.T, ln net.Listener) (*net.TCPConn, *bufio.Reader) {
		t.Helper()
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(conn)
		if _, err := br.ReadBytes('\n'); err != nil { // the registration frame
			t.Fatal(err)
		}
		return conn.(*net.TCPConn), br
	}
	listen := func(t *testing.T) net.Listener {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	return map[string]func(t *testing.T) (*net.TCPConn, *bufio.Reader){
		"Agent": func(t *testing.T) (*net.TCPConn, *bufio.Reader) {
			ln := listen(t)
			done := make(chan struct{})
			go func() {
				defer close(done)
				NewAgent(userMachine("legacy-node", false)).Run(ln.Addr().String())
			}()
			conn, br := accept(t, ln)
			t.Cleanup(func() { conn.Close(); <-done })
			return conn, br
		},
		"SimFleet": func(t *testing.T) (*net.TCPConn, *bufio.Reader) {
			ln := listen(t)
			fleet, err := StartSimFleet(1, SimOptions{Addr: ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fleet.Close)
			return accept(t, ln)
		},
	}
}

// TestRemovedFrameShapesRefused plays the vendor by hand against a real
// Agent and a SimFleet agent and sends the frame shapes the protocol no
// longer has: a test/integrate request carrying the whole upgrade, or its
// manifest as JSON, instead of a binary manifest body, and a fetch_chunks
// carrying base64 chunks in the header instead of announcing a raw body.
// Each must be answered with an error naming what is missing — never OK —
// and must leave the control channel in sync, which the ping that follows
// every case proves.
func TestRemovedFrameShapesRefused(t *testing.T) {
	const inlineUpgrade = `{"upgrade":{"id":"mysql-5.0.22","name":"mysql","version":"5.0.22","files":[{"path":"/usr/sbin/mysqld","type":1,"data":"bXlzcWxk"}]}}`
	const jsonManifest = `{"manifest":{"id":"mysql-5.0.22","name":"mysql","version":"5.0.22","files":[{"path":"/usr/sbin/mysqld","type":1,"chunks":[{"h":1,"n":6}]}]}}`
	cases := []struct {
		name, frame, missing string
	}{
		{"inline test", fmt.Sprintf(`{"id":1,"op":%q,"test":%s}`, OpTest, inlineUpgrade), "manifest"},
		{"inline integrate", fmt.Sprintf(`{"id":1,"op":%q,"integrate":%s}`, OpIntegrate, inlineUpgrade), "manifest"},
		{"JSON manifest test", fmt.Sprintf(`{"id":1,"op":%q,"test":%s}`, OpTest, jsonManifest), "manifest"},
		{"JSON manifest integrate", fmt.Sprintf(`{"id":1,"op":%q,"integrate":%s}`, OpIntegrate, jsonManifest), "manifest"},
		{"base64 fetch_chunks", fmt.Sprintf(`{"id":1,"op":%q,"fetch_chunks":{"chunks":[{"h":1,"data":"AAAA"}]}}`, OpFetchChunks), "chunk_meta"},
	}
	for name, dial := range handPlayedVendor() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				conn, br := dial(t)
				call := func(frame string) Frame {
					t.Helper()
					if _, err := conn.Write([]byte(frame + "\n")); err != nil {
						t.Fatal(err)
					}
					line, err := br.ReadBytes('\n')
					if err != nil {
						t.Fatalf("reading reply to %s: %v", frame, err)
					}
					var resp Frame
					if err := json.Unmarshal(line, &resp); err != nil {
						t.Fatal(err)
					}
					return resp
				}
				if resp := call(tc.frame); resp.OK || resp.ID != 1 || !strings.Contains(resp.Err, tc.missing) {
					t.Fatalf("reply = %+v, want an error naming the missing %s", resp, tc.missing)
				}
				if resp := call(fmt.Sprintf(`{"id":2,"op":%q}`, OpPing)); !resp.OK || resp.ID != 2 {
					t.Fatalf("ping after the refusal = %+v, want OK: the channel lost sync", resp)
				}
			})
		}
	}
}

// expectHangUp asserts the agent closed the channel without another byte:
// no reply to the frame it could not read.
func expectHangUp(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if line, err := br.ReadBytes('\n'); err != io.EOF || len(line) > 0 {
		t.Fatalf("agent sent %q (err %v), want it to hang up without a reply", line, err)
	}
}

// TestManifestBodyLenRefused: a manifest_len that is negative or beyond
// the 1 MiB cap is refused with ErrFrameTooLarge before any body byte is
// read, and whichever side read it drops the connection — an agent
// receiving such a request, and the vendor receiving such a reply.
func TestManifestBodyLenRefused(t *testing.T) {
	for _, n := range []int{-1, maxHeaderLine + 1} {
		header := fmt.Sprintf(`{"id":1,"op":%q,"manifest_len":%d}`+"\n", OpTest, n)
		t.Run(fmt.Sprintf("frameConn/%d", n), func(t *testing.T) {
			fc := newFrameConn(bufio.NewReader(strings.NewReader(header)), nil, nil)
			var f Frame
			if err := fc.ReadFrame(&f); !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("ReadFrame = %v, want ErrFrameTooLarge", err)
			}
		})
		for name, dial := range handPlayedVendor() {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				conn, br := dial(t)
				if _, err := conn.Write([]byte(header)); err != nil {
					t.Fatal(err)
				}
				expectHangUp(t, br)
			})
		}
		t.Run(fmt.Sprintf("vendor/%d", n), func(t *testing.T) {
			s, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			agent, srvEnd := net.Pipe()
			defer agent.Close()
			if err := s.ServeConn(srvEnd); err != nil {
				t.Fatal(err)
			}
			agent.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := fmt.Fprintf(agent, `{"op":%q,"register":{"machine":"liar"}}`+"\n", OpRegister); err != nil {
				t.Fatal(err)
			}
			if !s.WaitForAgent("liar", 5*time.Second) {
				t.Fatal("liar never registered")
			}
			pinged := make(chan error, 1)
			go func() { pinged <- s.Ping(context.Background(), "liar") }()
			br := bufio.NewReader(agent)
			if _, err := br.ReadBytes('\n'); err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Fprintf(agent, `{"id":1,"ok":true,"manifest_len":%d}`+"\n", n); err != nil {
				t.Fatal(err)
			}
			err = <-pinged
			if !errors.Is(err, ErrAgentGone) || !strings.Contains(err.Error(), ErrFrameTooLarge.Error()) {
				t.Fatalf("Ping = %v, want ErrAgentGone caused by ErrFrameTooLarge", err)
			}
			if got := s.Agents(); len(got) != 0 {
				t.Fatalf("agents after the refusal = %v, want the liar dropped", got)
			}
			expectHangUp(t, br)
		})
	}
}

// TestManifestBodyTruncated: a request whose manifest body is cut short,
// or does not decode, ends the agent's session without a reply — the
// agent neither waits forever nor reads the body's bytes as the next
// header.
func TestManifestBodyTruncated(t *testing.T) {
	enc := (&distrib.Manifest{ID: "mysql-5.0.22", Name: "mysql", Version: "5.0.22",
		Files: []distrib.FileManifest{{Path: "/usr/sbin/mysqld", Chunks: []distrib.ChunkRef{{Hash: 1, Size: 6}}}}}).Wire()
	header := func(n int) string { return fmt.Sprintf(`{"id":1,"op":%q,"manifest_len":%d}`+"\n", OpTest, n) }
	cases := map[string]string{
		"truncated":   header(len(enc)) + string(enc[:len(enc)/2]),
		"undecodable": header(len(enc)+1) + string(enc) + "\x00",
	}
	for cname, frame := range cases {
		t.Run("frameConn/"+cname, func(t *testing.T) {
			fc := newFrameConn(bufio.NewReader(strings.NewReader(frame)), nil, nil)
			var f Frame
			err := fc.ReadFrame(&f)
			if cname == "truncated" && !errors.Is(err, io.ErrUnexpectedEOF) ||
				cname == "undecodable" && !errors.Is(err, distrib.ErrBadManifest) {
				t.Fatalf("ReadFrame = %v", err)
			}
		})
		for name, dial := range handPlayedVendor() {
			t.Run(name+"/"+cname, func(t *testing.T) {
				conn, br := dial(t)
				if _, err := conn.Write([]byte(frame)); err != nil {
					t.Fatal(err)
				}
				if err := conn.CloseWrite(); err != nil {
					t.Fatal(err)
				}
				expectHangUp(t, br)
			})
		}
	}
}
