#!/usr/bin/env python3
"""A JSON-lines echo server that is the benchmark's own, not vogrid code.

    python3 bench/echo.py      # prints "LISTENING <port>", serves until killed

grid-wire times fresh-connection round trips to it as a host reference
(`EchoReference` in run.py): a thread per connection, a JSON line in and a
JSON line out, as vogrid's servers do, but with fixed code that no change
to the program can speed up.
"""

import json
import socketserver


class Echo(socketserver.StreamRequestHandler):
    def handle(self):
        for line in self.rfile:
            self.wfile.write(json.dumps({"result": json.loads(line)}).encode("utf-8") + b"\n")


class Server(socketserver.ThreadingTCPServer):
    daemon_threads = True


if __name__ == "__main__":
    with Server(("127.0.0.1", 0), Echo) as server:
        print(f"LISTENING {server.server_address[1]}", flush=True)
        server.serve_forever()
