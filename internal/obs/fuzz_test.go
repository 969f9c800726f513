package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzKindJSON feeds arbitrary bytes to Kind.UnmarshalJSON, the decoder of
// the event kinds in flight-recorder dumps. It must never panic, and a kind
// it accepts marshals back to the same bytes as the name it was given
// (JSON spells one name several ways, with escapes or whitespace; Marshal
// writes the plain one). The seed corpus lives in testdata/fuzz/FuzzKindJSON.
func FuzzKindJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var k Kind
		if k.UnmarshalJSON(b) != nil {
			return
		}
		var name string
		if err := json.Unmarshal(b, &name); err != nil {
			t.Fatalf("accepted %q, which is not a JSON string: %v", b, err)
		}
		got, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("accepted %q as kind %d, which does not marshal: %v", b, k, err)
		}
		if want, _ := json.Marshal(name); !bytes.Equal(got, want) {
			t.Fatalf("accepted %q as kind %d, which marshals to %s", b, k, got)
		}
	})
}
