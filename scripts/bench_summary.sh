#!/usr/bin/env bash
# Merge every BENCH_*.json in the repo root into one benchmark-trajectory
# table: each benchmark's headline metric and speedup on a single line,
# printed to stdout (CI runs this last so the log ends with the full
# performance picture). Unrecognized schemas are listed, not dropped, so
# a new benchmark shows up here the moment its file lands.
#
# Usage: scripts/bench_summary.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import glob, json

rows = []
for path in sorted(glob.glob('BENCH_*.json')):
    try:
        d = json.load(open(path))
    except Exception as e:
        rows.append((path, '(unreadable)', str(e), None, None))
        continue
    name = d.get('benchmark', '?')
    if name == 'sched_hot_path':
        rows.append((path, name, 'decisions/s (indexed vs naive)',
                     d['indexed']['decisions_per_sec'], d.get('speedup')))
    elif name == 'sim_event_core':
        rows.append((path, name, 'events/s (dense vs reference)',
                     d['dense']['events_per_sec'], d.get('speedup')))
    elif name == 'lang_vm_invocation':
        rows.append((path, name, 'invocations/s (vm vs tree, stateless)',
                     d['stateless']['vm']['invocations_per_sec'], d.get('speedup')))
    elif name == 'net_reactor_scaling':
        big = max(d['sizes'], key=lambda s: s['connections'])
        rows.append((path, name, f"msgs/s @ {big['connections']} conns",
                     big['msgs_per_sec'], None))
        for c in d.get('codec', []):
            rows.append((path, name,
                         f"codec enc+dec us, {c['message']} ({c['frame_bytes']} B)",
                         c['encode_us'] + c['decode_us'], None))
    elif name == 'shard_throughput':
        big = max(d['sweep'], key=lambda s: s['shards'])
        rows.append((path, name, f"units/s @ {big['shards']} shards (vs 1)",
                     big['throughput_per_sec'], big.get('speedup')))
    else:
        rows.append((path, name, '(unrecognized schema)', None, None))

print(f"{'file':<18} {'benchmark':<22} {'headline':<50} {'value':>12} {'speedup':>8}")
for path, name, head, value, sp in rows:
    v = f"{value:,.1f}" if isinstance(value, (int, float)) else '-'
    s = f"{sp:.2f}x" if isinstance(sp, (int, float)) else '-'
    print(f"{path:<18} {name:<22} {head:<50} {v:>12} {s:>8}")
print()
print('speedup baselines are per-benchmark (see each file); '
      'regenerate with: repro perf [--sim|--lang|--net] / repro shard')
EOF
