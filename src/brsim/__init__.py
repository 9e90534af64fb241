"""Discrete-event simulator for coin-flip relay routing over lossy radio.

Stations share a slotted radio channel with log-distance path loss, wall
attenuation and SIR-based collision resolution. Two protocols run on top of
the same frame codec and handshake machinery: the relay-probability scheme
(every station decides per epoch whether to relay for others or transmit its
own data, and forwards greedily on destination beacon strength) and an
always-on greedy baseline over CSMA/CA. The package reproduces static-network
experiments: hop-count scaling, route traces, and per-hop distances.
"""
