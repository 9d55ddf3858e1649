package gateway

import (
	"encoding/json"
	"net/http"
	"time"

	"iotsentinel/internal/packet"
)

// Management API for the Security Gateway (the paper's Sect. III-A
// management interface, through which the user inspects devices and
// manually removes devices at risk per Sect. III-C3):
//
//	GET    /v1/devices              list devices
//	GET    /v1/devices/{mac}        one device
//	POST   /v1/devices/{mac}/finish force-complete setup monitoring
//	DELETE /v1/devices/{mac}        remove a device (rule + flows)
//	GET    /v1/rules                the enforcement-rule cache
//	GET    /v1/stats                switch counters

type deviceJSON struct {
	MAC             string   `json:"mac"`
	State           string   `json:"state"`
	Type            string   `json:"type"`
	Level           string   `json:"level,omitempty"`
	SetupPackets    int      `json:"setupPackets"`
	FirstSeen       string   `json:"firstSeen"`
	AssessedAt      string   `json:"assessedAt,omitempty"`
	Vulnerabilities []string `json:"vulnerabilities,omitempty"`
	QuarantinedAt   string   `json:"quarantinedAt,omitempty"`
	AssessAttempts  int      `json:"assessAttempts,omitempty"`
}

type ruleJSON struct {
	MAC          string   `json:"mac"`
	Level        string   `json:"level"`
	DeviceType   string   `json:"deviceType"`
	PermittedIPs []string `json:"permittedIps,omitempty"`
}

func deviceToJSON(d DeviceInfo) deviceJSON {
	out := deviceJSON{
		MAC:          d.MAC.String(),
		State:        d.State.String(),
		Type:         string(d.Type),
		SetupPackets: d.SetupPackets,
		FirstSeen:    d.FirstSeen.UTC().Format(time.RFC3339),
	}
	if d.State == StateAssessed {
		out.Level = d.Level.String()
		out.AssessedAt = d.AssessedAt.UTC().Format(time.RFC3339)
	}
	if d.State == StateQuarantined {
		out.Level = d.Level.String()
		out.QuarantinedAt = d.QuarantinedAt.UTC().Format(time.RFC3339)
		out.AssessAttempts = d.AssessAttempts
	}
	for _, v := range d.Vulnerabilities {
		out.Vulnerabilities = append(out.Vulnerabilities, v.ID)
	}
	return out
}

// APIHandler serves the gateway management API. The now function
// supplies the clock for FinishSetup (virtual time in simulations).
func (g *Gateway) APIHandler(now func() time.Time) http.Handler {
	if now == nil {
		now = time.Now
	}
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		devs := g.Devices()
		out := make([]deviceJSON, 0, len(devs))
		for _, d := range devs {
			out = append(out, deviceToJSON(d))
		}
		writeJSON(w, map[string]any{"devices": out})
	})

	mux.HandleFunc("GET /v1/devices/{mac}", func(w http.ResponseWriter, r *http.Request) {
		mac, ok := parseMACParam(w, r)
		if !ok {
			return
		}
		d, found := g.Device(mac)
		if !found {
			http.Error(w, "unknown device", http.StatusNotFound)
			return
		}
		writeJSON(w, deviceToJSON(d))
	})

	mux.HandleFunc("POST /v1/devices/{mac}/finish", func(w http.ResponseWriter, r *http.Request) {
		mac, ok := parseMACParam(w, r)
		if !ok {
			return
		}
		if err := g.FinishSetup(mac, now()); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		d, _ := g.Device(mac)
		writeJSON(w, deviceToJSON(d))
	})

	mux.HandleFunc("DELETE /v1/devices/{mac}", func(w http.ResponseWriter, r *http.Request) {
		mac, ok := parseMACParam(w, r)
		if !ok {
			return
		}
		if _, found := g.Device(mac); !found {
			http.Error(w, "unknown device", http.StatusNotFound)
			return
		}
		g.RemoveDevice(mac)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /v1/rules", func(w http.ResponseWriter, r *http.Request) {
		rules := g.sw.Controller().Rules().Rules()
		out := make([]ruleJSON, 0, len(rules))
		for _, rule := range rules {
			rj := ruleJSON{
				MAC:        rule.DeviceMAC.String(),
				Level:      rule.Level.String(),
				DeviceType: rule.DeviceType,
			}
			for _, ip := range rule.PermittedIPs {
				rj.PermittedIPs = append(rj.PermittedIPs, ip.String())
			}
			out = append(out, rj)
		}
		writeJSON(w, map[string]any{"rules": out})
	})

	mux.HandleFunc("GET /v1/traffic", func(w http.ResponseWriter, r *http.Request) {
		type trafficJSON struct {
			MAC          string `json:"mac"`
			Packets      uint64 `json:"packets"`
			Bytes        uint64 `json:"bytes"`
			Dropped      uint64 `json:"dropped"`
			Destinations int    `json:"destinations"`
		}
		top := g.sw.TopTalkers(50)
		out := make([]trafficJSON, 0, len(top))
		for _, d := range top {
			out = append(out, trafficJSON{
				MAC: d.MAC.String(), Packets: d.Packets, Bytes: d.Bytes,
				Dropped: d.Dropped, Destinations: d.Destinations,
			})
		}
		writeJSON(w, map[string]any{"devices": out})
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := g.sw.Stats()
		hits, misses := g.sw.Controller().Rules().Stats()
		writeJSON(w, map[string]any{
			"forwarded":       st.Forwarded,
			"dropped":         st.Dropped,
			"packetIns":       st.PacketIns,
			"tableHits":       st.TableHits,
			"flows":           g.sw.Table().Len(),
			"ruleCacheHits":   hits,
			"ruleCacheMisses": misses,
			"quarantined":     g.QuarantineLen(),
		})
	})

	return mux
}

func parseMACParam(w http.ResponseWriter, r *http.Request) (packet.MAC, bool) {
	mac, err := packet.ParseMAC(r.PathValue("mac"))
	if err != nil {
		http.Error(w, "bad mac: "+err.Error(), http.StatusBadRequest)
		return packet.MAC{}, false
	}
	return mac, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
