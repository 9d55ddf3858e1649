package vulndb

import (
	"sync"
	"testing"

	"iotsentinel/internal/testutil"
)

func TestSeverityString(t *testing.T) {
	tests := []struct {
		give Severity
		want string
	}{
		{SeverityLow, "low"},
		{SeverityMedium, "medium"},
		{SeverityHigh, "high"},
		{SeverityCritical, "critical"},
		{Severity(42), "severity(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Severity(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestAddAndQuery(t *testing.T) {
	db := New()
	if db.Len() != 0 {
		t.Fatalf("new DB has %d records", db.Len())
	}
	db.Add(Record{ID: "A-1", DeviceType: "Cam", Severity: SeverityLow})
	db.Add(Record{ID: "A-2", DeviceType: "Cam", Severity: SeverityCritical})
	db.Add(Record{ID: "A-3", DeviceType: "Plug", Severity: SeverityMedium})

	recs := db.Query("Cam")
	if len(recs) != 2 {
		t.Fatalf("Query(Cam) = %d records", len(recs))
	}
	if recs[0].Severity != SeverityCritical {
		t.Errorf("records not sorted by severity: %+v", recs)
	}
	// Case-insensitive lookup.
	if len(db.Query("cam")) != 2 || len(db.Query("CAM")) != 2 {
		t.Error("query must be case-insensitive")
	}
	if len(db.Query("Toaster")) != 0 {
		t.Error("unknown type returned records")
	}
}

func TestIsVulnerableAndMaxSeverity(t *testing.T) {
	db := New()
	db.Add(Record{ID: "B-1", DeviceType: "Cam", Severity: SeverityMedium})
	db.Add(Record{ID: "B-2", DeviceType: "Cam", Severity: SeverityHigh})
	if !db.IsVulnerable("Cam") || db.IsVulnerable("Plug") {
		t.Error("IsVulnerable wrong")
	}
	if got := db.MaxSeverity("Cam"); got != SeverityHigh {
		t.Errorf("MaxSeverity = %v", got)
	}
	if got := db.MaxSeverity("Plug"); got != 0 {
		t.Errorf("MaxSeverity(unknown) = %v, want 0", got)
	}
}

// TestQueryUnchangedByLaterAdd: Query hands out the stored slice, and
// Add copies on write, so records a caller holds stay what they were
// when later records of the type land, before, between or after them.
func TestQueryUnchangedByLaterAdd(t *testing.T) {
	db := New()
	db.Add(Record{ID: "C-2", DeviceType: "Cam", Severity: SeverityMedium})
	held := db.Query("Cam")
	db.Add(Record{ID: "C-1", DeviceType: "Cam", Severity: SeverityHigh})
	db.Add(Record{ID: "C-3", DeviceType: "cam", Severity: SeverityLow})
	if len(held) != 1 || held[0].ID != "C-2" || cap(held) != 1 {
		t.Errorf("held records became %+v (cap %d)", held, cap(held))
	}
	got := db.Query("CAM")
	if len(got) != 3 || got[0].ID != "C-1" || got[1].ID != "C-2" || got[2].ID != "C-3" {
		t.Errorf("Query after the adds = %+v", got)
	}
	if again := db.Query("Cam"); &again[0] != &got[0] {
		t.Error("two queries with no Add between them returned two copies")
	}
}

func TestNewDefault(t *testing.T) {
	db := NewDefault()
	if db.Len() < 8 {
		t.Fatalf("default DB has only %d records", db.Len())
	}
	// The kettle attack the paper cites must be on file.
	if !db.IsVulnerable("iKettle2") {
		t.Error("iKettle2 missing from default DB")
	}
	if db.MaxSeverity("EdnetCam") != SeverityCritical {
		t.Error("EdnetCam should be critical")
	}
	// A clean device stays clean.
	if db.IsVulnerable("HueBridge") {
		t.Error("HueBridge should have no records")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewDefault()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				db.Add(Record{ID: "X", DeviceType: "racer", Severity: SeverityLow})
				db.Query("racer")
				db.IsVulnerable("iKettle2")
			}
		}(i)
	}
	wg.Wait()
	if got := len(db.Query("racer")); got != 800 {
		t.Errorf("racer records = %d, want 800", got)
	}
}

func TestParseSeverityRoundTrip(t *testing.T) {
	for _, s := range []Severity{SeverityLow, SeverityMedium, SeverityHigh, SeverityCritical} {
		got, err := ParseSeverity(s.String())
		if err != nil {
			t.Fatalf("ParseSeverity(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("ParseSeverity(%q) = %v, want %v", s.String(), got, s)
		}
	}
	if got, err := ParseSeverity("CRITICAL"); err != nil || got != SeverityCritical {
		t.Errorf("ParseSeverity is case-insensitive: got %v, %v", got, err)
	}
	if _, err := ParseSeverity("apocalyptic"); err == nil {
		t.Error("unknown severity must error")
	}
}

// TestAddKeepsQueryOrder: records are placed at Add time, so whatever
// order they arrive in, Query returns them by descending severity and
// then by ID, and arrival order breaks no tie.
func TestAddKeepsQueryOrder(t *testing.T) {
	db := New()
	for _, r := range []Record{
		{ID: "C-3", DeviceType: "Cam", Severity: SeverityMedium},
		{ID: "C-5", DeviceType: "cam", Severity: SeverityCritical},
		{ID: "C-1", DeviceType: "CAM", Severity: SeverityMedium},
		{ID: "C-4", DeviceType: "Cam", Severity: SeverityLow},
		{ID: "C-2", DeviceType: "Cam", Severity: SeverityMedium},
	} {
		db.Add(r)
	}
	var got []string
	for _, r := range db.Query("Cam") {
		got = append(got, r.ID)
	}
	want := []string{"C-5", "C-1", "C-2", "C-3", "C-4"}
	if len(got) != len(want) {
		t.Fatalf("Query order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Query order = %v, want %v", got, want)
		}
	}
}

// TestQueryAllocatesOnlyItsAnswer: the per-assessment lookup builds no
// lowercase key and sorts nothing — a clean type costs no allocation, a
// vulnerable one the returned copy. A non-ASCII name still resolves.
func TestQueryAllocatesOnlyItsAnswer(t *testing.T) {
	db := NewDefault()
	db.Add(Record{ID: "U-1", DeviceType: "Caméra", Severity: SeverityLow})
	if !db.IsVulnerable("CAMÉRA") {
		t.Error("non-ASCII name must fold like strings.ToLower")
	}
	testutil.AssertAllocs(t, "Query/clean", 0, func() { _ = db.Query("HueBridge") })
	testutil.AssertAllocs(t, "Query/vulnerable", 1, func() { _ = db.Query("D-LinkCam") })
}
