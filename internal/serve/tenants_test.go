package serve

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseTenants(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name    string
		spec    string
		sloMs   float64
		want    map[string]TenantConfig
		wantErr string
	}{
		{name: "empty", spec: "", want: nil},
		{name: "weights", spec: "acme:3,guest:1", want: map[string]TenantConfig{
			"acme": {Weight: 3}, "guest": {Weight: 1},
		}},
		{name: "explicit slo", spec: "acme:3:50, guest:1:12.5", want: map[string]TenantConfig{
			"acme": {Weight: 3, SLO: 50 * ms}, "guest": {Weight: 1, SLO: 12500 * time.Microsecond},
		}},
		{name: "slo default", spec: "acme:3:50,guest:1", sloMs: 20, want: map[string]TenantConfig{
			"acme": {Weight: 3, SLO: 50 * ms}, "guest": {Weight: 1, SLO: 20 * ms},
		}},
		{name: "zero weight", spec: "acme:0", wantErr: "bad weight"},
		{name: "negative weight", spec: "acme:3,guest:-1", wantErr: "bad weight"},
		{name: "non-numeric weight", spec: "acme:x", wantErr: "bad weight"},
		{name: "bad slo", spec: "acme:3:fast", wantErr: "bad slo_ms"},
		{name: "zero slo", spec: "acme:3:0", wantErr: "bad slo_ms"},
		{name: "empty name", spec: ":3", wantErr: "bad entry"},
		{name: "missing weight", spec: "acme", wantErr: "bad entry"},
		{name: "too many fields", spec: "acme:3:50:1", wantErr: "bad entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseTenants(tc.spec, tc.sloMs)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseTenants(%q) err = %v, want %q", tc.spec, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseTenants(%q): %v", tc.spec, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseTenants(%q) = %v, want %v", tc.spec, got, tc.want)
			}
		})
	}
}
