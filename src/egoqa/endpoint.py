"""Chat-completion endpoint clients.

HttpChatEndpoint speaks the common chat-completions wire protocol and
retries transport failures internally; parse-level retries (resubmitting a
prompt whose completion would not parse) belong to the generation layer.
MockChatEndpoint replays a fixture keyed by prompt hash so pipelines can be
tested hermetically and deterministically.
"""
from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol

import requests

from .core import ServiceError, ValidationError

log = logging.getLogger(__name__)


class EndpointUnavailable(ServiceError):
    """Endpoint could not produce a completion after transport retries.

    partial holds the (samples, records) a generation batch finished before
    the endpoint died, so callers can persist them; it is empty otherwise.
    """

    def __init__(self, message: str, partial: tuple[tuple, tuple] = ((), ())):
        super().__init__(message)
        self.partial: tuple[tuple, tuple] = partial


@dataclass(frozen=True)
class EndpointConfig:
    """Connection and sampling parameters for a chat endpoint.

    Sampling defaults to temperature 0 so mocked and scripted runs are
    reproducible; real runs set their own value and it is recorded in every
    output's metadata.
    """

    base_url: str = ""
    model: str = "mock"
    temperature: float = 0.0
    max_tokens: int = 128
    request_timeout_s: float = 30.0
    max_retries: int = 2
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValidationError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")


class ChatEndpoint(Protocol):
    def complete(self, prompt: str) -> str:
        """Return the raw completion text for one prompt."""


class HttpClient:
    """Transport shared by the HTTP clients: JSON POSTs below config.base_url.

    Transport failures and malformed response envelopes are retried at once,
    up to config.max_retries times, then raised as `unavailable`.
    """

    unavailable: type[ServiceError]  # raised when every attempt failed
    service: str  # names the service in logs and errors

    def __init__(self, config: EndpointConfig, api_key: str | None = None):
        if not config.base_url:
            raise ValidationError(f"{type(self).__name__} requires a base_url")
        self.config = config
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    def _post_json(self, route: str, body: Mapping[str, Any], decode: Callable[[Any], Any]):
        """POST body to {base_url}/{route}; return decode(parsed JSON reply).

        decode raises KeyError, IndexError, TypeError or ValueError on an
        envelope it cannot use, which counts as a failed attempt.
        """
        url = self.config.base_url.rstrip("/") + "/" + route
        attempts = self.config.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            try:
                response = requests.post(
                    url,
                    json=body,
                    headers=self._headers,
                    timeout=self.config.request_timeout_s,
                )
                response.raise_for_status()
                return decode(response.json())
            except (requests.RequestException, KeyError, IndexError, TypeError, ValueError) as exc:
                last_error = exc
                log.warning(
                    "%s request failed (attempt %d/%d): %s",
                    self.service,
                    attempt + 1,
                    attempts,
                    exc,
                )
        raise self.unavailable(
            f"{self.service} endpoint failed after {attempts} attempts: {last_error}"
        )


def _chat_content(reply) -> str:
    content = reply["choices"][0]["message"]["content"]
    if not isinstance(content, str):
        raise TypeError(f"completion content is {type(content).__name__}, not text")
    return content


class HttpChatEndpoint(HttpClient):
    """POSTs prompts to {base_url}/chat/completions."""

    unavailable = EndpointUnavailable
    service = "chat"

    def complete(self, prompt: str) -> str:
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        return self._post_json("chat/completions", body, _chat_content)


def prompt_digest(prompt: str) -> str:
    """Fixture key for a prompt: hex sha256 of its UTF-8 bytes."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class MockChatEndpoint:
    """In-process endpoint replaying completions from a fixture mapping.

    The fixture maps prompt_digest(prompt) to either a completion string or
    a list of strings consumed one per call (repeating the last once
    exhausted), which lets tests script a malformed first attempt followed
    by a good retry. A "*" entry, if present, answers unknown prompts.
    """

    def __init__(self, completions: Mapping[str, object]):
        self._completions = dict(completions)
        self._cursor: dict[str, int] = {}
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, prompt: str) -> str:
        key = prompt_digest(prompt)
        with self._lock:
            self.calls += 1
            if key not in self._completions:
                if "*" in self._completions:
                    key = "*"
                else:
                    raise EndpointUnavailable(
                        f"mock fixture has no completion for prompt hash {key}"
                    )
            entry = self._completions[key]
            if isinstance(entry, str):
                return entry
            seq = list(entry)
            if not seq:
                raise EndpointUnavailable(f"mock fixture entry for {key} is empty")
            i = self._cursor.get(key, 0)
            self._cursor[key] = i + 1
            return str(seq[min(i, len(seq) - 1)])
