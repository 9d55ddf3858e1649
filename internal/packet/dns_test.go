package packet

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDNSRoundTrip(t *testing.T) {
	give := DNSMessage{
		ID: 0x1234,
		Questions: []DNSQuestion{
			{Name: "time.nist.gov", Type: DNSTypeA, Class: 1},
			{Name: "_hap._tcp.local", Type: DNSTypePTR, Class: 1},
		},
	}
	raw, err := give.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := ParseDNS(raw)
	if err != nil {
		t.Fatalf("ParseDNS: %v", err)
	}
	if got.ID != give.ID || got.Response {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Questions) != 2 {
		t.Fatalf("questions = %d, want 2", len(got.Questions))
	}
	for i, q := range got.Questions {
		if q != give.Questions[i] {
			t.Errorf("question %d = %+v, want %+v", i, q, give.Questions[i])
		}
	}
}

func TestDNSResponseFlag(t *testing.T) {
	give := DNSMessage{ID: 1, Response: true, Answers: 3}
	raw, err := give.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := ParseDNS(raw)
	if err != nil {
		t.Fatalf("ParseDNS: %v", err)
	}
	if !got.Response || got.Answers != 3 {
		t.Errorf("got %+v", got)
	}
}

func TestDNSNameCompression(t *testing.T) {
	// Build a message manually with a compression pointer: the second
	// question name points back into the first.
	raw := []byte{
		0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, // header: 2 questions
		3, 'f', 'o', 'o', 3, 'c', 'o', 'm', 0, 0, 1, 0, 1, // foo.com A IN
		3, 'w', 'w', 'w', 0xc0, 12, 0, 1, 0, 1, // www -> ptr to offset 12
	}
	got, err := ParseDNS(raw)
	if err != nil {
		t.Fatalf("ParseDNS: %v", err)
	}
	if len(got.Questions) != 2 {
		t.Fatalf("questions = %d, want 2", len(got.Questions))
	}
	if got.Questions[0].Name != "foo.com" {
		t.Errorf("q0 = %q", got.Questions[0].Name)
	}
	if got.Questions[1].Name != "www.foo.com" {
		t.Errorf("q1 = %q", got.Questions[1].Name)
	}
}

func TestDNSPointerLoop(t *testing.T) {
	raw := []byte{
		0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xc0, 12, // name is a pointer to itself
		0, 1, 0, 1,
	}
	if _, err := ParseDNS(raw); err == nil {
		t.Error("pointer loop should fail")
	}
}

func TestDNSParseErrors(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{name: "short-header", give: make([]byte, 4)},
		{name: "truncated-question", give: []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'f'}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseDNS(tt.give); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestEncodeDNSNameErrors(t *testing.T) {
	if _, err := appendDNSName(nil, "a.."+"b"); err == nil {
		t.Error("empty label should fail")
	}
	if _, err := appendDNSName(nil, strings.Repeat("x", 64)+".com"); err == nil {
		t.Error("oversized label should fail")
	}
	if _, err := appendDNSName(nil, "a.b.."); err == nil {
		t.Error("empty last label should fail")
	}
}

func TestDNSQuickRoundTrip(t *testing.T) {
	f := func(id uint16, labels [3]uint8) bool {
		// Build a syntactically valid name out of bounded label lengths.
		var parts []string
		for _, n := range labels {
			l := int(n)%20 + 1
			parts = append(parts, strings.Repeat("a", l))
		}
		name := strings.Join(parts, ".")
		give := DNSMessage{ID: id,
			Questions: []DNSQuestion{{Name: name, Type: DNSTypeA, Class: 1}}}
		raw, err := give.Marshal()
		if err != nil {
			return false
		}
		got, err := ParseDNS(raw)
		if err != nil || len(got.Questions) != 1 {
			return false
		}
		return got.ID == id && got.Questions[0].Name == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
