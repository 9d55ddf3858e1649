// Package vulndb implements the vulnerability-assessment substrate of
// Sect. III-B: a CVE-style record store queried by device-type. The
// paper consults the MITRE CVE database; this package embeds an
// equivalent record set for the evaluated device catalog so the IoTSSP
// decision logic (vulnerable → restricted, clean → trusted, unknown →
// strict) runs against real lookups.
package vulndb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"
)

// Severity grades a vulnerability record.
type Severity int

// Severity levels, ordered.
const (
	SeverityLow Severity = iota + 1
	SeverityMedium
	SeverityHigh
	SeverityCritical
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "low"
	case SeverityMedium:
		return "medium"
	case SeverityHigh:
		return "high"
	case SeverityCritical:
		return "critical"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// ParseSeverity maps a severity name (as produced by Severity.String)
// back to its level, so records survive a wire round-trip intact.
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToLower(s) {
	case "low":
		return SeverityLow, nil
	case "medium":
		return SeverityMedium, nil
	case "high":
		return SeverityHigh, nil
	case "critical":
		return SeverityCritical, nil
	default:
		return 0, fmt.Errorf("vulndb: unknown severity %q", s)
	}
}

// Record is one CVE-style vulnerability entry.
type Record struct {
	// ID is the advisory identifier (CVE-style).
	ID string
	// DeviceType is the affected device-type.
	DeviceType string
	// Severity grades the impact.
	Severity Severity
	// Summary describes the weakness.
	Summary string
	// FixedInUpdate reports whether a firmware update resolving the
	// issue exists (influences user notification, Sect. III-C3).
	FixedInUpdate bool
}

// DB is a thread-safe vulnerability record store.
type DB struct {
	mu sync.RWMutex
	// records is keyed by lowercase device-type; each type's records are
	// kept in Query's order (descending severity, then ID). A stored
	// slice is never written: Add replaces it, so Query hands it out.
	records map[string][]Record
}

// New returns an empty DB.
func New() *DB {
	return &DB{records: make(map[string][]Record)}
}

// NewDefault returns a DB preloaded with advisory records for the
// evaluated device catalog, mirroring the public reports the paper
// cites (insecure plugs, cameras with default credentials, the WiFi
// kettle attack, shared private keys).
func NewDefault() *DB {
	db := New()
	for _, r := range defaultRecords() {
		db.Add(r)
	}
	return db
}

// Add inserts a record at its place in its type's order, so queries —
// one per assessment — never sort. It copies the type's records into a
// new slice, so a slice Query returned earlier keeps what it held.
func (db *DB) Add(r Record) {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(r.DeviceType)
	recs := db.records[key]
	at := sort.Search(len(recs), func(i int) bool {
		if recs[i].Severity != r.Severity {
			return recs[i].Severity < r.Severity
		}
		return recs[i].ID > r.ID
	})
	next := make([]Record, 0, len(recs)+1)
	next = append(append(append(next, recs[:at]...), r), recs[at:]...)
	db.records[key] = next
}

// lookupLocked returns the stored records of a device-type
// (case-insensitive). The lowercase key of an ASCII name is built on
// the stack — a map lookup by string(bytes) does not copy them — so the
// per-assessment query allocates nothing for the key.
func (db *DB) lookupLocked(deviceType string) []Record {
	var buf [64]byte
	if len(deviceType) > len(buf) {
		return db.records[strings.ToLower(deviceType)]
	}
	key := buf[:len(deviceType)]
	for i := range key {
		c := deviceType[i]
		if c >= utf8.RuneSelf {
			return db.records[strings.ToLower(deviceType)]
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		key[i] = c
	}
	return db.records[string(key)]
}

// Query returns all records for a device-type (case-insensitive),
// sorted by descending severity. The slice is the store's own, shared by
// every caller and read-only: every device of a type holds the one
// copy. A later Add leaves it as it is.
func (db *DB) Query(deviceType string) []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lookupLocked(deviceType)
}

// IsVulnerable reports whether any record exists for the device-type.
func (db *DB) IsVulnerable(deviceType string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.lookupLocked(deviceType)) > 0
}

// MaxSeverity returns the highest severity on file for the device-type,
// or 0 when no record exists.
func (db *DB) MaxSeverity(deviceType string) Severity {
	var max Severity
	for _, r := range db.Query(deviceType) {
		if r.Severity > max {
			max = r.Severity
		}
	}
	return max
}

// Len returns the total number of records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, recs := range db.records {
		n += len(recs)
	}
	return n
}

// defaultRecords models the advisory landscape of early 2016 for the
// paper's device set. IDs use a reproduction-local namespace (RPR)
// to avoid implying these are verbatim CVE entries.
func defaultRecords() []Record {
	return []Record{
		{ID: "RPR-2015-7401", DeviceType: "iKettle2", Severity: SeverityHigh,
			Summary: "WiFi kettle discloses WPA2 PSK to unauthenticated telnet client"},
		{ID: "RPR-2015-7402", DeviceType: "SmarterCoffee", Severity: SeverityHigh,
			Summary: "coffee machine pairs with spoofed access point and leaks network credentials"},
		{ID: "RPR-2016-1101", DeviceType: "EdimaxPlug1101W", Severity: SeverityMedium,
			Summary: "smart plug accepts unauthenticated configuration commands on LAN"},
		{ID: "RPR-2016-1102", DeviceType: "EdimaxPlug2101W", Severity: SeverityMedium,
			Summary: "smart plug firmware reuses publicly known private key"},
		{ID: "RPR-2016-2201", DeviceType: "EdnetCam", Severity: SeverityCritical,
			Summary: "IP camera exposes video stream with hard-coded default credentials"},
		{ID: "RPR-2016-2202", DeviceType: "EdimaxCam", Severity: SeverityHigh,
			Summary: "camera registration endpoint vulnerable to command injection", FixedInUpdate: true},
		{ID: "RPR-2016-3301", DeviceType: "D-LinkCam", Severity: SeverityHigh,
			Summary: "camera cloud relay accepts unauthenticated NAT hole punching"},
		{ID: "RPR-2016-3302", DeviceType: "D-LinkDayCam", Severity: SeverityMedium,
			Summary: "HTTP management interface transmits credentials in cleartext"},
		{ID: "RPR-2016-4401", DeviceType: "HomeMaticPlug", Severity: SeverityMedium,
			Summary: "gateway broadcasts pairing key in cleartext during setup"},
		{ID: "RPR-2016-5501", DeviceType: "WeMoSwitch", Severity: SeverityMedium,
			Summary: "UPnP action allows rule injection without authentication", FixedInUpdate: true},
	}
}
