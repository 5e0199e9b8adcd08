package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestRemovedFrameShapesRefused plays the vendor by hand against a real
// Agent and a SimFleet agent and sends the two frame shapes the protocol
// no longer has: a test/integrate request carrying the whole upgrade
// instead of a manifest, and a fetch_chunks carrying base64 chunks in the
// header instead of announcing a raw body. Each must be answered with an
// error naming what is missing — never OK — and must leave the control
// channel in sync, which the ping that follows every case proves.
func TestRemovedFrameShapesRefused(t *testing.T) {
	// Each endpoint returns the vendor side of a control channel whose
	// registration frame has already been read.
	endpoints := map[string]func(t *testing.T) net.Conn{
		"Agent": func(t *testing.T) net.Conn {
			vendor, agentEnd := net.Pipe()
			go NewAgent(userMachine("legacy-node", false)).ServeConn(agentEnd)
			return vendor
		},
		"SimFleet": func(t *testing.T) net.Conn {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			fleet, err := StartSimFleet(1, SimOptions{Addr: ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fleet.Close)
			vendor, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return vendor
		},
	}
	const inlineUpgrade = `{"upgrade":{"id":"mysql-5.0.22","name":"mysql","version":"5.0.22","files":[{"path":"/usr/sbin/mysqld","type":1,"data":"bXlzcWxk"}]}}`
	cases := []struct {
		name, frame, missing string
	}{
		{"inline test", fmt.Sprintf(`{"id":1,"op":%q,"test":%s}`, OpTest, inlineUpgrade), "manifest"},
		{"inline integrate", fmt.Sprintf(`{"id":1,"op":%q,"integrate":%s}`, OpIntegrate, inlineUpgrade), "manifest"},
		{"base64 fetch_chunks", fmt.Sprintf(`{"id":1,"op":%q,"fetch_chunks":{"chunks":[{"h":1,"data":"AAAA"}]}}`, OpFetchChunks), "chunk_meta"},
	}
	for name, dial := range endpoints {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				conn := dial(t)
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(conn)
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
				if _, err := br.ReadBytes('\n'); err != nil { // the registration frame
					t.Fatal(err)
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
