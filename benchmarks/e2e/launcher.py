"""The benchmark's server process.

Builds the server exactly as ``repro serve`` does -- ``CExplorer()`` +
``upload`` + ``index()`` + ``make_server()`` -- and serves it on a
free port.  The harness (``harness.py``) talks HTTP to that port like
any client; what HTTP cannot express travels over a JSON-lines control
channel on stdin/stdout:

========== ============================================================
``reset``  clear the result cache and the subproblem memo (indexes
           stay built), so a pass starts cold
``update`` one edge insert/remove through ``CExplorer.maintainer()``
           under ``ServerState.write_lock`` -- the documented mutation
           gateway; there is no HTTP update route
``usage``  user+sys CPU seconds and peak RSS of this process and its
           children
``trace``  install (``on``) or remove (``off``) the span wrappers of
           ``spans.py``; ``off`` returns the recorded spans
``quit``   shut down
========== ============================================================

The process receives the graph file and requests, never a seed.  It
exits when stdin closes, so it cannot outlive the harness.
"""

import argparse
import json
import os
import sys
import threading
import time


def _proc_usage(pid):
    """``(cpu_seconds, peak_rss_kb)`` of a live process from /proc."""
    try:
        with open("/proc/{}/stat".format(pid)) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        with open("/proc/{}/status".format(pid)) as f:
            status = f.read()
    except OSError:
        return 0.0, 0
    ticks = os.sysconf("SC_CLK_TCK")
    cpu = (int(fields[11]) + int(fields[12])) / ticks
    peak = 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            peak = int(line.split()[1])
    return cpu, peak


def usage():
    """CPU and peak memory of the server: this process, children that
    have exited (``os.times``), and live pool workers (/proc).

    Peak memory is ``VmHWM``, not ``ru_maxrss``: the latter survives
    ``exec`` and so starts at the size of whatever forked this process
    (the harness, which grows as it collects answers)."""
    import multiprocessing
    t = os.times()
    cpu = time.process_time() + t.children_user + t.children_system
    rss_kb = _proc_usage(os.getpid())[1]
    for child in multiprocessing.active_children():
        child_cpu, child_rss = _proc_usage(child.pid)
        cpu += child_cpu
        rss_kb += child_rss
    return {"cpu_s": cpu, "rss_mb": rss_kb / 1024.0}


def parse_config(text):
    """``front=async,backend=process,shards=4,workers=N,batch_window=MS``
    -> a dict of the non-default constructor arguments."""
    config = {"front": "sync", "backend": "thread", "shards": 1,
              "workers": 2, "batch_window": None}
    for item in filter(None, (text or "").split(",")):
        key, _, value = item.partition("=")
        if key not in config:
            raise SystemExit("unknown server-config key {!r}".format(key))
        if key in ("shards", "workers"):
            config[key] = int(value)
        elif key == "batch_window":
            config[key] = float(value) / 1000.0
        else:
            config[key] = value
    return config


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph", required=True)
    parser.add_argument("--maintainer", action="store_true",
                        help="attach the CoreMaintainer during set-up")
    parser.add_argument("--server-config", default="")
    args = parser.parse_args(argv)
    config = parse_config(args.server_config)

    stages = {}
    mark = time.monotonic()
    from repro import CExplorer, make_server
    stages["import_s"] = time.monotonic() - mark

    explorer = CExplorer(workers=config["workers"],
                         backend=config["backend"])
    mark = time.monotonic()
    explorer.upload(args.graph, name="dblp", shards=config["shards"])
    stages["load_graph_s"] = time.monotonic() - mark
    mark = time.monotonic()
    explorer.index()
    stages["index_build_s"] = time.monotonic() - mark
    mark = time.monotonic()
    changed = []
    if args.maintainer:
        explorer.maintainer().add_listener(
            lambda event: changed.append(len(event["changed"])))
    stages["maintainer_s"] = time.monotonic() - mark

    if config["front"] == "async":
        from repro.server.async_app import make_async_server
        window = config["batch_window"]
        server = make_async_server(
            explorer, port=0,
            batch_window=0.005 if window is None else window)
        server.start_background()
    else:
        server = make_server(explorer, port=0,
                             batch_window=config["batch_window"])
        threading.Thread(target=server.serve_forever,
                         daemon=True).start()
    state = server.state

    def reply(doc):
        sys.stdout.write(json.dumps(doc) + "\n")
        sys.stdout.flush()

    reply({"ready": True, "port": server.server_address[1],
           "stages": stages})

    recorder = None
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request["cmd"]
        if cmd == "reset":
            explorer.cache.invalidate()
            explorer.engine.memo.invalidate()
            reply({"ok": True})
        elif cmd == "update":
            del changed[:]
            with state.write_lock:
                maintainer = explorer.maintainer()
                if request["kind"] == "insert":
                    maintainer.insert_edge(request["u"], request["v"])
                else:
                    maintainer.remove_edge(request["u"], request["v"])
            reply({"ok": True, "changed": sum(changed)})
        elif cmd == "usage":
            reply(usage())
        elif cmd == "trace":
            import spans
            if request["mode"] == "on":
                recorder = spans.install()
                reply({"ok": True})
            else:
                reply({"ok": True, "spans": spans.uninstall(recorder)})
                recorder = None
        elif cmd == "quit":
            break
    server.shutdown()
    explorer.engine.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
