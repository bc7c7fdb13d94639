package trinocular

import (
	"testing"
	"time"

	"sleepnet/internal/netsim"
)

// TestReplayRoundMatchesLive: a round re-run from its outcome log through
// ReplayRound, by a second prober that never touches the network, returns
// the live round's observation and leaves the same block memory — on the
// fixture that exercises every outcome (positives, silence, gateway
// unreachables, rate-limited cut-offs, send errors after retries) and cold
// restart rounds — and counts nothing as sent.
func TestReplayRoundMatchesLive(t *testing.T) {
	live := buildWavefrontWorld(t, true, true)
	replay := buildWavefrontWorld(t, false, true)
	aOps := []float64{0.9, 0.4, 0.8, 0.3}
	var seen [NumOutcomes]int
	cold, retried := 0, 0
	for r := 0; r < 64; r++ {
		now := epoch.Add(time.Duration(r) * 660 * time.Second)
		for i, id := range live.ids {
			obs, err := live.probers[i].ProbeRound(now, aOps[i])
			if err != nil {
				t.Fatal(err)
			}
			got, err := replay.probers[i].ReplayRound(now, aOps[i], obs.Log, obs.Outcomes(), obs.Retries)
			if err != nil {
				t.Fatalf("round %d block %s: %v", r, id, err)
			}
			if got != obs {
				t.Fatalf("round %d block %s diverged:\nlive   %+v\nreplay %+v", r, id, obs, got)
			}
			for k := 0; k < obs.Outcomes(); k++ {
				seen[obs.Log>>(4*k)&0xf]++
			}
			if obs.Cold {
				cold++
			}
			if obs.Retries > 0 {
				retried++
			}
		}
	}
	for code, n := range seen {
		if n == 0 {
			t.Errorf("fixture too tame: outcome %d never happened", code)
		}
	}
	if cold == 0 || retried == 0 {
		t.Errorf("fixture too tame: %d cold rounds, %d rounds with retries", cold, retried)
	}
	for i := range live.probers {
		if ls, rs := live.probers[i].State(), replay.probers[i].State(); ls != rs {
			t.Errorf("prober state diverged: live %+v, replay %+v", ls, rs)
		}
		if n := replay.probers[i].ProbesSent(); n != 0 {
			t.Errorf("replay counted %d probes as sent", n)
		}
	}
	if n := replay.reg.Snapshot().Counter("trinocular.rounds"); n != 0 {
		t.Errorf("replay flushed %d rounds into the metrics", n)
	}
}

// TestReplayRoundRejectsBadLogs: a log that is not one whole round of the
// block is an error, never a silently different state.
func TestReplayRoundRejectsBadLogs(t *testing.T) {
	const pos, neg = OutcomeLog(outcomePositive), OutcomeLog(outcomeNegative)
	for name, c := range map[string]struct {
		log        OutcomeLog
		n, retries int
	}{
		"no outcomes":        {0, 0, 0},
		"seventeen outcomes": {0, MaxLoggedOutcomes + 1, 0},
		"negative retries":   {pos, 1, -1},
		"codes past n":       {pos | pos<<4, 1, 0},
		"unknown outcome":    {0x5, 1, 0},
		// At aOp 0.5 a positive ends the round and one silence does not.
		"outcome after the end":    {pos | pos<<4, 2, 0},
		"too few to end the round": {neg, 1, 0},
	} {
		w := buildWavefrontWorld(t, false, true)
		if _, err := w.probers[0].ReplayRound(epoch, 0.5, c.log, c.n, c.retries); err == nil {
			t.Errorf("%s: replay accepted it", name)
		}
	}
	if _, err := New(netsim.NewNetwork(1), Config{}, 40).ReplayRound(epoch, 0.5, pos, 1, 0); err == nil {
		t.Error("replay by a prober without a block accepted")
	}
}
