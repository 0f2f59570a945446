"""Loopback stand-in for a chat-completions service.

One process, one thread, one asyncio event loop. Every request is answered
after a fixed delay with the completion the fixture scripts for the
digest of its prompt, using MockChatEndpoint's replay rules: a string
answers every time, a list answers one item per request and then repeats
its last item. An unknown prompt gets a 404.

The benchmark runner (bench/run.py) talks to the stub over stdin and
stdout, one line each way: "reset" rewinds the scripted cursors and zeroes
the counters, "stats" returns the counters as JSON, "quit" stops the loop.
The first line the stub prints is the port it listens on.

    python3 bench/stub.py FIXTURE.json LATENCY_MS
"""
from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import time


class Stub:
    def __init__(self, fixture: dict, latency_s: float):
        self.fixture = fixture
        self.latency_s = latency_s
        self.reset()

    def reset(self) -> None:
        self.cursor: dict[str, int] = {}
        self.requests = 0
        self.connections = 0
        self.non_200 = 0
        self.in_flight = 0
        self.in_flight_integral = 0.0
        self.last_change = time.perf_counter()

    def _in_flight_step(self, delta: int) -> None:
        now = time.perf_counter()
        self.in_flight_integral += self.in_flight * (now - self.last_change)
        self.last_change = now
        self.in_flight += delta

    def stats(self) -> dict:
        self._in_flight_step(0)
        return {
            "requests": self.requests,
            "connections": self.connections,
            "non_200": self.non_200,
            "in_flight_s": self.in_flight_integral,
        }

    def completion(self, prompt: str) -> str | None:
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        entry = self.fixture.get(key)
        if entry is None or isinstance(entry, str):
            return entry
        i = self.cursor.get(key, 0)
        self.cursor[key] = i + 1
        return entry[min(i, len(entry) - 1)]

    async def serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.connections += 1
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                body = await reader.readexactly(length)
                self.requests += 1
                self._in_flight_step(+1)
                await asyncio.sleep(self.latency_s)
                status, payload = self.reply(body)
                writer.write(
                    b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s"
                    % (status, b"OK" if status == 200 else b"Not Found",
                       len(payload), payload)
                )
                await writer.drain()
                self._in_flight_step(-1)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    def reply(self, body: bytes) -> tuple[int, bytes]:
        try:
            prompt = json.loads(body)["messages"][0]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            prompt = None
        text = self.completion(prompt) if isinstance(prompt, str) else None
        if text is None:
            self.non_200 += 1
            return 404, b'{"error": "no scripted completion"}'
        doc = {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}
        return 200, json.dumps(doc).encode("utf-8")


async def main_async(args: argparse.Namespace) -> None:
    with open(args.fixture, encoding="utf-8") as f:
        stub = Stub(json.load(f), args.latency_ms / 1000.0)
    server = await asyncio.start_server(stub.serve, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    loop = asyncio.get_running_loop()
    control = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(control), sys.stdin
    )
    print(port, flush=True)
    async with server:
        while True:
            line = (await control.readline()).decode().strip()
            if line == "reset":
                stub.reset()
                print("ok", flush=True)
            elif line == "stats":
                print(json.dumps(stub.stats()), flush=True)
            else:  # "quit" or the runner went away
                break


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fixture")
    parser.add_argument("latency_ms", type=float)
    asyncio.run(main_async(parser.parse_args()))


if __name__ == "__main__":
    main()
