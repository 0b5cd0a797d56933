#include "lwg/messages.hpp"

namespace plwg::lwg {

void DataMsg::encode(Encoder& enc) const {
  enc.put_id(lwg);
  lwg_view.encode(enc);
  enc.put_bytes(payload);
}

DataMsg DataMsg::decode(Decoder& dec) {
  DataMsg m;
  m.lwg = dec.get_id<LwgId>();
  m.lwg_view = ViewId::decode(dec);
  m.payload = dec.get_bytes();
  return m;
}

DataMsgView DataMsgView::decode(Decoder& dec) {
  DataMsgView m;
  m.lwg = dec.get_id<LwgId>();
  m.lwg_view = ViewId::decode(dec);
  m.payload = dec.get_bytes_view();
  return m;
}

void JoinMsg::encode(Encoder& enc) const {
  enc.put_id(lwg);
  enc.put_id(joiner);
}

JoinMsg JoinMsg::decode(Decoder& dec) {
  JoinMsg m;
  m.lwg = dec.get_id<LwgId>();
  m.joiner = dec.get_id<ProcessId>();
  return m;
}

void LeaveMsg::encode(Encoder& enc) const {
  enc.put_id(lwg);
  enc.put_id(leaver);
}

LeaveMsg LeaveMsg::decode(Decoder& dec) {
  LeaveMsg m;
  m.lwg = dec.get_id<LwgId>();
  m.leaver = dec.get_id<ProcessId>();
  return m;
}

void ViewMsg::encode(Encoder& enc) const {
  enc.put_id(lwg);
  view.encode(enc);
  enc.put_u32(static_cast<std::uint32_t>(predecessors.size()));
  for (const ViewId& p : predecessors) p.encode(enc);
}

ViewMsg ViewMsg::decode(Decoder& dec) {
  ViewMsg m;
  m.lwg = dec.get_id<LwgId>();
  m.view = LwgView::decode(dec);
  const std::uint32_t n = dec.get_count(12);
  m.predecessors.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.predecessors.push_back(ViewId::decode(dec));
  }
  return m;
}

void SwitchMsg::encode(Encoder& enc) const {
  enc.put_id(lwg);
  lwg_view.encode(enc);
  enc.put_id(to_hwg);
  contacts.encode(enc);
}

SwitchMsg SwitchMsg::decode(Decoder& dec) {
  SwitchMsg m;
  m.lwg = dec.get_id<LwgId>();
  m.lwg_view = ViewId::decode(dec);
  m.to_hwg = dec.get_id<HwgId>();
  m.contacts = MemberSet::decode(dec);
  return m;
}

void SwitchReadyMsg::encode(Encoder& enc) const {
  enc.put_id(lwg);
  lwg_view.encode(enc);
  enc.put_id(member);
}

SwitchReadyMsg SwitchReadyMsg::decode(Decoder& dec) {
  SwitchReadyMsg m;
  m.lwg = dec.get_id<LwgId>();
  m.lwg_view = ViewId::decode(dec);
  m.member = dec.get_id<ProcessId>();
  return m;
}

void SwitchedMsg::encode(Encoder& enc) const {
  enc.put_id(lwg);
  enc.put_id(to_hwg);
  contacts.encode(enc);
}

SwitchedMsg SwitchedMsg::decode(Decoder& dec) {
  SwitchedMsg m;
  m.lwg = dec.get_id<LwgId>();
  m.to_hwg = dec.get_id<HwgId>();
  m.contacts = MemberSet::decode(dec);
  return m;
}

void RedirectMsg::encode(Encoder& enc) const {
  enc.put_id(lwg);
  enc.put_id(joiner);
  enc.put_id(to_hwg);
  contacts.encode(enc);
}

RedirectMsg RedirectMsg::decode(Decoder& dec) {
  RedirectMsg m;
  m.lwg = dec.get_id<LwgId>();
  m.joiner = dec.get_id<ProcessId>();
  m.to_hwg = dec.get_id<HwgId>();
  m.contacts = MemberSet::decode(dec);
  return m;
}

void AnnounceMsg::encode(Encoder& enc) const {
  enc.put_u32(static_cast<std::uint32_t>(views.size()));
  for (const LwgViewInfo& v : views) v.encode(enc);
}

AnnounceMsg AnnounceMsg::decode(Decoder& dec) {
  AnnounceMsg m;
  const std::uint32_t n = dec.get_count(12);
  m.views.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    m.views.push_back(LwgViewInfo::decode(dec));
  }
  return m;
}

}  // namespace plwg::lwg
