#include "parallel/protocol.hpp"

namespace fdml {

std::vector<std::uint8_t> RoundMessage::pack() const {
  Packer packer;
  packer.put_u64(round_id);
  packer.put_u32(static_cast<std::uint32_t>(tasks.size()));
  for (const TreeTask& task : tasks) task.pack(packer);
  return packer.take();
}

RoundMessage RoundMessage::unpack(Unpacker& unpacker) {
  RoundMessage message;
  message.round_id = unpacker.get_u64();
  const std::uint32_t count = unpacker.get_u32();
  // Minimal TreeTask encoding: task_id + round_id + empty string + focus.
  unpacker.require_count(count, 8 + 8 + 4 + 4);
  message.tasks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    message.tasks.push_back(TreeTask::unpack(unpacker));
  }
  return message;
}

std::vector<std::uint8_t> RoundDoneMessage::pack() const {
  Packer packer;
  packer.put_u64(round_id);
  best.pack(packer);
  packer.put_u32(static_cast<std::uint32_t>(stats.size()));
  for (const TaskStat& stat : stats) {
    packer.put_u64(stat.task_id);
    packer.put_f64(stat.cpu_seconds);
    packer.put_u64(stat.bytes);
    packer.put_i32(stat.worker);
  }
  return packer.take();
}

RoundDoneMessage RoundDoneMessage::unpack(Unpacker& unpacker) {
  RoundDoneMessage message;
  message.round_id = unpacker.get_u64();
  message.best = TaskResult::unpack(unpacker);
  const std::uint32_t count = unpacker.get_u32();
  // Each TaskStat encodes as task_id + cpu_seconds + bytes + worker.
  unpacker.require_count(count, 8 + 8 + 8 + 4);
  message.stats.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    TaskStat stat;
    stat.task_id = unpacker.get_u64();
    stat.cpu_seconds = unpacker.get_f64();
    stat.bytes = unpacker.get_u64();
    stat.worker = unpacker.get_i32();
    message.stats.push_back(stat);
  }
  return message;
}

std::vector<std::uint8_t> ProgressMessage::pack() const {
  Packer packer;
  packer.put_u64(round_id);
  packer.put_u64(completed);
  packer.put_u64(expected);
  return packer.take();
}

ProgressMessage ProgressMessage::unpack(Unpacker& unpacker) {
  ProgressMessage message;
  message.round_id = unpacker.get_u64();
  message.completed = unpacker.get_u64();
  message.expected = unpacker.get_u64();
  return message;
}

std::vector<std::uint8_t> RoundFailedMessage::pack() const {
  Packer packer;
  packer.put_u64(round_id);
  packer.put_string(reason);
  return packer.take();
}

RoundFailedMessage RoundFailedMessage::unpack(Unpacker& unpacker) {
  RoundFailedMessage message;
  message.round_id = unpacker.get_u64();
  message.reason = unpacker.get_string();
  return message;
}

std::vector<std::uint8_t> TaskRejectedMessage::pack() const {
  Packer packer;
  packer.put_u64(round_id);
  packer.put_u64(task_id);
  packer.put_string(reason);
  return packer.take();
}

TaskRejectedMessage TaskRejectedMessage::unpack(Unpacker& unpacker) {
  TaskRejectedMessage message;
  message.round_id = unpacker.get_u64();
  message.task_id = unpacker.get_u64();
  message.reason = unpacker.get_string();
  return message;
}

}  // namespace fdml
