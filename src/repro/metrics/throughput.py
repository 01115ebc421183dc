"""Per-host throughput from fabric captures (Figures 7, 8, 12).

Receive throughput counts bytes of packets *delivered to* the host;
transmit throughput counts bytes of packets *sent by* the host (whether or
not they survive the path — matching what tcpdump sees at the sender's
interface). Application *goodput* counts only data payload bytes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.metrics.series import BinnedSeries
from repro.net.pcap import CaptureRecord


class HostThroughput:
    """Subscribe to a :class:`~repro.net.pcap.PacketCapture` for one host."""

    def __init__(self, address: int, bin_width: float = 1.0) -> None:
        self.address = address
        self.rx = BinnedSeries(bin_width)
        self.tx = BinnedSeries(bin_width)
        self.rx_goodput = BinnedSeries(bin_width)
        self.tx_goodput = BinnedSeries(bin_width)

    def tap(self, time: float, packet, event: str) -> None:
        """Fast-path network tap (register via ``Network.add_tap``)."""
        if event == "deliver":
            if packet.dst_ip == self.address:
                self.on_rx(time, packet)
        elif event == "send" and packet.src_ip == self.address:
            self.on_tx(time, packet)

    def on_rx(self, time: float, packet) -> None:
        """A packet was delivered to this host (pre-matched on address —
        the ``Network.add_throughput_tap`` fast path)."""
        self.rx.add(time, packet.size_bytes)
        if packet.payload_bytes:
            self.rx_goodput.add(time, packet.payload_bytes)

    def on_tx(self, time: float, packet) -> None:
        """A packet left this host (pre-matched on address)."""
        self.tx.add(time, packet.size_bytes)
        if packet.payload_bytes:
            self.tx_goodput.add(time, packet.payload_bytes)

    def sink(self, record: CaptureRecord) -> None:
        """CaptureRecord-style entry point (PacketCapture subscription)."""
        self.tap(record.time, record.packet, record.event)

    @staticmethod
    def to_mbps(times: List[float], byte_rate: Sequence[float]
                ) -> Tuple[List[float], List[float]]:
        return times, [rate * 8.0 / 1e6 for rate in byte_rate]

    def rx_mbps(self, until: float) -> Tuple[List[float], List[float]]:
        return self.to_mbps(*self.rx.rate_series(until))

    def tx_mbps(self, until: float) -> Tuple[List[float], List[float]]:
        return self.to_mbps(*self.tx.rate_series(until))

    def rx_goodput_mbps(self, until: float
                        ) -> Tuple[List[float], List[float]]:
        return self.to_mbps(*self.rx_goodput.rate_series(until))

    def mean_rx_mbps(self, start: float, end: float) -> float:
        return self.rx.window_sum(start, end) * 8.0 / 1e6 / max(
            end - start, 1e-9)

    def mean_tx_mbps(self, start: float, end: float) -> float:
        return self.tx.window_sum(start, end) * 8.0 / 1e6 / max(
            end - start, 1e-9)
