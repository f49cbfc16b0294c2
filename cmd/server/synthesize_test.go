package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/dftsp"
)

// tableOptions are the 13 option sets of the Table I path the benchmark
// serves (bench's tableOptions): the catalog codes but Tesseract with the
// defaults, Steane and Shor with the optimal encoder, and Steane, Shor and
// Surface with global verification.
var tableOptions = []dftsp.Options{
	{Code: "Steane"}, {Code: "Shor"}, {Code: "Surface"}, {Code: "[[11,1,3]]"},
	{Code: "Tetrahedral"}, {Code: "Hamming"}, {Code: "Carbon"}, {Code: "[[16,2,4]]"},
	{Code: "Steane", Prep: dftsp.PrepOptimal}, {Code: "Shor", Prep: dftsp.PrepOptimal},
	{Code: "Steane", Verif: dftsp.VerifGlobal}, {Code: "Shor", Verif: dftsp.VerifGlobal},
	{Code: "Surface", Verif: dftsp.VerifGlobal},
}

// synthesizeBody renders a /synthesize request body for o; relaxed spells
// the catalog name in lower case, the way the serving benchmark does.
func synthesizeBody(o dftsp.Options, qasm, relaxed bool) string {
	name := o.Code
	if relaxed {
		name = strings.ToLower(name)
	}
	s := fmt.Sprintf(`{"code":%q`, name)
	if o.Prep != "" {
		s += fmt.Sprintf(`,"prep":%q`, o.Prep)
	}
	if o.Verif != "" {
		s += fmt.Sprintf(`,"verif":%q`, o.Verif)
	}
	if qasm {
		s += `,"qasm":true`
	}
	return s + "}"
}

// postRaw posts body and returns the status and the exact response bytes.
func postRaw(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSynthesizeBodiesPinned pins the exact /synthesize bodies of every
// Table I option set, with and without the QASM export, answered as a miss
// and as a memory hit. The hashes were recorded before hits were answered
// from stored bytes. Each server answers hits with both QASM switches, two
// of each in a relaxed spelling, so the first hit of a switch, which
// renders, and a later one, which writes the stored bytes, are checked.
func TestSynthesizeBodiesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the 13 Table I protocols twice")
	}
	want := map[string][2]string{ // label → miss, hit SHA-256
		`{"code":"Steane"} qasm=false`:                   {"bd942fbc84a4b3c29102d1376cf5240b98f2cfa18c025fdf7d8aeae25684cc19", "856f8cca160223168b2691673f35909e23b398b6d497a284f7d64fcee1558867"},
		`{"code":"Shor"} qasm=false`:                     {"e07b2e682351f463ce88bf17acc847384a2dd4b41895ff33bc5e37b3b1e2582a", "49fdc5e64db51a90ecf5df2727751e4c503147d0855cf113567c044606b9f09b"},
		`{"code":"Surface"} qasm=false`:                  {"2ce81242dcd0202745b6cd7fb1ee954924af3c20e1488c819f5d8700010f61f3", "defef9f6655e1bf4b1ec71ffb0d657b8f9495ae9724eb738e06d99dc119e3d7b"},
		`{"code":"[[11,1,3]]"} qasm=false`:               {"3c20431df1b4330c7ff21d3271db7aba29568b0b56b7259fcda1206e2b8527a6", "82e34ec62df6fd2934d3958dfdaec7e27f5506d488a899917a9c6a48cbda6ac8"},
		`{"code":"Tetrahedral"} qasm=false`:              {"c98282f02ba14d9c74a2b511a60d6f544f3ef1d30094624e43d561e308d68f0d", "12a1c63b997e2fbe370e43a26248d537aab68474e2e76bb8e7ac8b6a9ea21d75"},
		`{"code":"Hamming"} qasm=false`:                  {"211da7aa30f99e7e900dc75dc85c4083495ca86c5a77572f9eae78089f4daf61", "9e6f38e17ecebbafca8cb119347ebe88f6d0fbba4f1eb2a5687d2b71836dc42a"},
		`{"code":"Carbon"} qasm=false`:                   {"00bb928ceba8bc40eeb6ffdb5f905388c6a3f8a2885a82d6a8f98dd7e83c6736", "1f882321190dbaa6d6f8717565c24281aac5fcf681ab817353966845e254af22"},
		`{"code":"[[16,2,4]]"} qasm=false`:               {"e89867f1e218bc713f74b37079d59df953a9be32d482a045a3e01c580e5b8b32", "6f3510864eae78cee58523e9ac1e9b3e7e80a04bf08588b72d1e335f617624ec"},
		`{"code":"Steane","prep":"opt"} qasm=false`:      {"2b0508441066349f1856f90af973e4bd5e31c6cc70393b3d62c8cad2f482300f", "a726e9fa75894884369c10a0b1d8e90f8b730d32f9596e93777d2f544d226034"},
		`{"code":"Shor","prep":"opt"} qasm=false`:        {"512788d6e4369d27cb82327d3cd9be6800a7f6638f93d33f7c003d4a75c4b93d", "f136cbbab513892a1d8a1a631bcc7732281101f00eaafb97f1c0fb768562351d"},
		`{"code":"Steane","verif":"global"} qasm=false`:  {"bd942fbc84a4b3c29102d1376cf5240b98f2cfa18c025fdf7d8aeae25684cc19", "856f8cca160223168b2691673f35909e23b398b6d497a284f7d64fcee1558867"},
		`{"code":"Shor","verif":"global"} qasm=false`:    {"6fee8f1a4ab93f1ab4cd32b2693ebd857d6033310df90044b52f17719068e2ef", "331fcbea86676e9c20be8b62c9b5fe0cbe5141a808e2453a0e26a10dba6f38fa"},
		`{"code":"Surface","verif":"global"} qasm=false`: {"2ce81242dcd0202745b6cd7fb1ee954924af3c20e1488c819f5d8700010f61f3", "defef9f6655e1bf4b1ec71ffb0d657b8f9495ae9724eb738e06d99dc119e3d7b"},
		`{"code":"Steane"} qasm=true`:                    {"11dc23157885821638bb1278acf36dd1667dcae1c2497154dd595370de015897", "14207a693d4c7b936225662d5a06293285f1d21d4fde26203df6ac4851aba78c"},
		`{"code":"Shor"} qasm=true`:                      {"0fb9deb3871f2c4b26fef9a1cb8d81cf08d81b032ea26f6061596af45dcd163a", "fe1cc0f4a34519b199800f003b6349917fd7f7291d2eecb7c8a05a5c0a07eeb8"},
		`{"code":"Surface"} qasm=true`:                   {"def9c694ee7c8d523d39aa30929cbdc176b7744c22c90d681e3d2a4415a993a9", "c2b5ed3b4f0a8303a2dabaed324b73eccbf51bd281ce8dc6511b4067f0f830ce"},
		`{"code":"[[11,1,3]]"} qasm=true`:                {"60d8e852b8bd766ce4848a544073d85d120388c5c79db84295acc027b707082c", "537b476de146c92535c4fecf094a167615852af5963949052643690e2b1c25ec"},
		`{"code":"Tetrahedral"} qasm=true`:               {"1e42a3c3f7d0f3b83da78f09a3a16e94b4dc52e4fa72da1ee40e55c6fcd4ed0c", "e63a69efc08d362093e0330457df0d47cc277cd447941cb1bae482be92e5ca53"},
		`{"code":"Hamming"} qasm=true`:                   {"5ad62efd4f4115f5c98c658554ac9111e7bde5d28c864fb8da4ffc842b6c3701", "de3533e02bd2468613fc3aa45587eb7aa6fdb916015b85585dd5e063e91953ef"},
		`{"code":"Carbon"} qasm=true`:                    {"35dc5c9f3d15376e9acc649871560a268623727e3b7b5c6fd6c8c46e5e0a6c2e", "67167e99abff48f5f90a91b31c0509330027e6412a819c3fa681433726adde21"},
		`{"code":"[[16,2,4]]"} qasm=true`:                {"df84fd16e358b6168edbed9cbf55e0a7372926592bd30168ac0be292128c937e", "6bb31828c11bdfa4fe9d1dced96cae7a37744b803fd4f61f0cdd54fd66509f51"},
		`{"code":"Steane","prep":"opt"} qasm=true`:       {"d883723aceb18e17dc1c6e33b045e4c595d975d5549b0db36503fe77a28226f7", "0febcc0c8066fc933f46d2ead633083bfe878de7830608a38429be9311f709fc"},
		`{"code":"Shor","prep":"opt"} qasm=true`:         {"8a2c3051802a5ba28feef5724c393ed7de713e86b6ed42f1d6f3586d7bc396f7", "3c7f62236c778c1fa197d35d184936d6ac2462789a08b49e0ac2bc05e268c375"},
		`{"code":"Steane","verif":"global"} qasm=true`:   {"11dc23157885821638bb1278acf36dd1667dcae1c2497154dd595370de015897", "14207a693d4c7b936225662d5a06293285f1d21d4fde26203df6ac4851aba78c"},
		`{"code":"Shor","verif":"global"} qasm=true`:     {"c985d5c1b4b1976cbce008f1099ff37be8b0917ca07a675237d2a70c5747201b", "08773f1efea3a9f03cc5858d95eee66fa516d4358af11567c231c3bed9dc3887"},
		`{"code":"Surface","verif":"global"} qasm=true`:  {"def9c694ee7c8d523d39aa30929cbdc176b7744c22c90d681e3d2a4415a993a9", "c2b5ed3b4f0a8303a2dabaed324b73eccbf51bd281ce8dc6511b4067f0f830ce"},
	}
	for _, missQASM := range []bool{false, true} {
		ts := newTestServer(t)
		for _, o := range tableOptions {
			label := func(qasm bool) string { return fmt.Sprintf("%s qasm=%v", synthesizeBody(o, false, false), qasm) }
			status, miss := postRaw(t, ts.URL+"/synthesize", synthesizeBody(o, missQASM, false))
			if status != http.StatusOK {
				t.Fatalf("%s: miss status %d: %s", label(missQASM), status, miss)
			}
			if got := sha(miss); got != want[label(missQASM)][0] {
				t.Errorf("%s: miss body SHA-256 %s, want %s", label(missQASM), got, want[label(missQASM)][0])
			}
			// Two hits per QASM switch, alternating and starting with the
			// switch the miss did not use.
			for i := range 4 {
				qasm := (i%2 == 0) != missQASM
				status, hit := postRaw(t, ts.URL+"/synthesize", synthesizeBody(o, qasm, true))
				if status != http.StatusOK {
					t.Fatalf("%s: hit status %d: %s", label(qasm), status, hit)
				}
				if got := sha(hit); got != want[label(qasm)][1] {
					t.Errorf("%s: hit %d body SHA-256 %s, want %s", label(qasm), i, got, want[label(qasm)][1])
				}
			}
		}
	}
}

// TestSynthesizeConcurrentFirstHits makes the first hits on a protocol
// from eight goroutines at once: every one must get the same bytes, and
// those must be the bytes a later hit gets.
func TestSynthesizeConcurrentFirstHits(t *testing.T) {
	for _, qasm := range []bool{false, true} {
		ts := newTestServer(t)
		body := synthesizeBody(dftsp.Options{Code: "Steane"}, qasm, false)
		if status, out := postRaw(t, ts.URL+"/synthesize", body); status != http.StatusOK {
			t.Fatalf("miss: status %d: %s", status, out)
		}
		var wg sync.WaitGroup
		bodies := make([][]byte, 8)
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/synthesize", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				bodies[i], _ = io.ReadAll(resp.Body)
			}()
		}
		wg.Wait()
		_, later := postRaw(t, ts.URL+"/synthesize", body)
		if !bytes.Contains(later, []byte(`"cache_hit":true`)) {
			t.Fatalf("qasm=%v: later request is no hit: %s", qasm, later)
		}
		for i, b := range bodies {
			if !bytes.Equal(b, later) {
				t.Fatalf("qasm=%v: concurrent first hit %d answered %q, a later hit %q", qasm, i, b, later)
			}
		}
	}
}

// FuzzSynthesizeBody posts arbitrary bytes to /synthesize on a server with
// three cached protocols and a 5 ms request timeout, so a body naming an
// uncached option set ends instead of running a long SAT search. Every
// answer must be a JSON error with a 4xx or 503 status, or a 200 whose body
// is a fresh encoding of the protocol the body names; a panic fails the
// input.
//
// Bodies that name hx or hz are skipped: building a custom code has no size
// bound and does not poll the request context (a custom code with many
// logical qubits can hold a core and memory past any timeout), so they wait
// for a bound on the code size. A surface_distance past its bound is a 400
// before any code is built.
func FuzzSynthesizeBody(f *testing.F) {
	for _, seed := range []string{
		`{"code":"Steane"}`,
		`{"code":"steane","qasm":true}`,
		`{"code":"SHOR","verif":"global"}`,
		`{"code":"surface","prep":"heu","qasm":false}`,
		`{"code":"Steane","prep":"banana"}`,
		`{"code":"NoSuchCode"}`,
		`{"code":"Steane","prep":"opt","prep_budget":-1}`,
		`{"code":"Steane","verif":"global","global_limit":-1}`,
		`{"code":"Steane","flag_all":true}`,
		`{"code":"Tesseract"}`,
		`{"surface_distance":7}`,
		`{"surface_distance":1048577}`,
		`{"bogus_field":1}`,
		`{"code":"Steane"} trailing`,
		`{"code":`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	svc := dftsp.NewService(1)
	for _, code := range []string{"Steane", "Shor", "Surface"} {
		if _, _, err := svc.Protocol(context.Background(), dftsp.Options{Code: code}); err != nil {
			f.Fatal(err)
		}
	}
	srv := newServer(svc, serverConfig{timeout: 5 * time.Millisecond, accessLog: log.New(io.Discard, "", 0)})

	f.Fuzz(func(t *testing.T, body []byte) {
		var named synthesizeRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&named) == nil && (len(named.Hx) > 0 || len(named.Hz) > 0) {
			t.Skip("unbounded code construction")
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/synthesize", bytes.NewReader(body)))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%q: status %d with content type %q", body, rec.Code, ct)
		}
		switch {
		case rec.Code == http.StatusOK:
			var req synthesizeRequest
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("%q: 200 for a body the server cannot decode: %v", body, err)
			}
			p, _, err := svc.Protocol(context.Background(), req.Options)
			if err != nil {
				t.Fatalf("%q: 200, but the protocol is not cached: %v", body, err)
			}
			resp := synthesizeResponse{
				Code: p.CodeName(), Params: p.CodeParams(), Summary: p.Summary(),
				Metrics: p.MetricsRow(), Describe: p.Describe(),
				CacheHit: bytes.Contains(rec.Body.Bytes(), []byte(`"cache_hit":true`)),
			}
			if req.QASM {
				if resp.QASM, err = p.QASM(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("%q: 200 body %q, want %q", body, got, want)
			}
		case rec.Code >= 400 && rec.Code < 500, rec.Code == http.StatusServiceUnavailable:
			var out map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] == "" || len(out) != 1 {
				t.Fatalf("%q: status %d with body %q, want a JSON error", body, rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
	})
}

// TestSynthesizeRejectsLargeSpans posts a custom [[28,1]] code whose Z
// stabilizer group has 27 generators, more than synthesis can enumerate:
// the answer is a 400 naming the bound, not a synthesis failure.
func TestSynthesizeRejectsLargeSpans(t *testing.T) {
	ts := newTestServer(t)
	row := func(qs ...int) string {
		b := []byte(strings.Repeat("0", 28))
		for _, q := range qs {
			b[q] = '1'
		}
		return string(b)
	}
	o := dftsp.Options{Hx: []string{row(0, 1)}, Hz: []string{row(0, 1)}}
	for q := 2; q <= 26; q++ {
		o.Hz = append(o.Hz, row(q))
	}
	body, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	status, out := postJSON(t, ts.URL+"/synthesize", string(body))
	if msg, _ := out["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, "2^24") {
		t.Fatalf("status %d: %v, want 400 naming the 2^24 bound", status, out)
	}
}
